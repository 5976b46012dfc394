#pragma once
// The benchmark's three workloads (README.md gives the reasons for each).
// A round runs one episode: every input of the round is drawn from the
// episode index alone, so a given episode always simulates the same
// circuits and its outputs can be checked against the stored reference.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/models.hpp"
#include "probe.hpp"

namespace perfbench {

/// Number of distinct episodes per workload; the reference holds them all.
inline constexpr std::uint64_t kEpisodes = 64;

/// What a round works with: the model set built during set-up, the probe
/// that meters it, and the worker-thread budget.
struct Bench {
    Probe& probe;
    const tfetsram::device::ModelSet& models;
    std::size_t threads;
};

/// Simulated outputs of one round, by name.
using Outputs = std::vector<std::pair<std::string, double>>;

using RoundFn = void (*)(Bench& bench, std::uint64_t episode, Outputs& out);

/// The round function of a workload; nullptr for an unknown name.
[[nodiscard]] RoundFn find_workload(std::string_view name);

} // namespace perfbench
