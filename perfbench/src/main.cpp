// Benchmark driver: sets up one workload, runs its rounds for a host-time
// budget and prints one JSON record of raw measurements on stdout, which
// perfbench/run.py turns into the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --threads T
//                    [--trace 0|1] [--trace-file PATH] [--all-episodes]
//
// Round r of a run simulates episode (7 * seed + r) mod kEpisodes, so the
// seed fixes the inputs and consecutive rounds never repeat one. With
// --trace 1 each episode runs twice, untraced and then traced, which gives
// the tracing overhead and checks that the counters repeat exactly.
// --all-episodes runs every episode once, untraced, ignoring the budget:
// that is how the stored reference outputs are made.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "device/models.hpp"
#include "probe.hpp"
#include "runner/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using tfetsram::runner::Json;

constexpr int kSetupReps = 9;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::size_t threads = 0;
    bool trace = false;
    std::string trace_file;
    bool all_episodes = false;
};

template <typename T>
bool parse_number(std::string_view text, T& out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

std::optional<Args> parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--all-episodes") {
            args.all_episodes = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << flag << " needs a value\n";
            return std::nullopt;
        }
        const std::string_view value = argv[++i];
        bool ok = true;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            ok = parse_number(value, args.seed);
        } else if (flag == "--seconds") {
            ok = parse_number(value, args.seconds) && args.seconds > 0.0 &&
                 std::isfinite(args.seconds);
        } else if (flag == "--threads") {
            ok = parse_number(value, args.threads) && args.threads > 0;
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            args.trace = value == "1";
        } else if (flag == "--trace-file") {
            args.trace_file = value;
        } else {
            std::cerr << "perfbench: unknown flag " << flag << "\n";
            return std::nullopt;
        }
        if (!ok) {
            std::cerr << "perfbench: bad value for " << flag << ": " << value
                      << "\n";
            return std::nullopt;
        }
    }
    if (args.workload.empty()) {
        std::cerr << "perfbench: --workload is required\n";
        return std::nullopt;
    }
    if (args.threads == 0)
        args.threads = std::max(1u, std::thread::hardware_concurrency());
    return args;
}

/// JSON has no infinities or NaN; simulated outputs carry them as strings.
Json number(double v) {
    if (std::isnan(v))
        return Json("nan");
    if (std::isinf(v))
        return Json(v > 0 ? "inf" : "-inf");
    return Json(v);
}

Json solver_json(const tfetsram::spice::SolverStats& s) {
    Json j = Json::object();
    j.set("nr_iterations", s.nr_iterations);
    j.set("dc_solves", s.dc_solves);
    j.set("transient_steps", s.transient_steps);
    j.set("transient_solves", s.transient_solves);
    j.set("assemblies", s.assemblies);
    j.set("lu_factorizations", s.lu_factorizations);
    j.set("line_search_backtracks", s.line_search_backtracks);
    j.set("sparse_refactorizations", s.sparse_refactorizations);
    j.set("sparse_symbolic_analyses", s.sparse_symbolic_analyses);
    j.set("sparse_static_pivot_hits", s.sparse_static_pivot_hits);
    j.set("sparse_pivot_fallbacks", s.sparse_pivot_fallbacks);
    j.set("sparse_ordering_us", s.sparse_ordering_us);
    j.set("batched_evals", s.batched_evals);
    j.set("deadline_polls", s.deadline_polls);
    j.set("cancelled_solves", s.cancelled_solves);
    j.set("hier_promotions", s.hier_promotions);
    j.set("hier_demotions", s.hier_demotions);
    j.set("hier_relinearizations", s.hier_relinearizations);
    j.set("hier_guard_retries", s.hier_guard_retries);
    j.set("sparse_pattern_nnz", s.sparse_pattern_nnz);
    j.set("sparse_lu_nnz", s.sparse_lu_nnz);
    j.set("hier_active_unknowns", s.hier_active_unknowns);
    return j;
}

Json round_json(std::uint64_t episode, bool traced, double wall_s,
                const RoundMeasure& m, const Outputs& outputs) {
    Json r = Json::object();
    r.set("episode", episode);
    r.set("traced", traced);
    r.set("wall_s", wall_s);
    r.set("attempted", m.attempted);
    r.set("failed", m.failed);
    Json units = Json::array();
    for (double s : m.unit_s)
        units.push_back(s);
    r.set("unit_s", std::move(units));
    Json layer = Json::object();
    for (const auto& [name, value] : m.layer)
        layer.set(name, value);
    r.set("layer", std::move(layer));
    r.set("solver", solver_json(m.solver));
    Json out = Json::object();
    for (const auto& [name, value] : outputs)
        out.set(name, number(value));
    r.set("outputs", std::move(out));
    return r;
}

int run(const Args& args) {
    const RoundFn round_fn = find_workload(args.workload);
    if (round_fn == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    Probe probe;

    // Set-up is building the model set every round shares. It runs several
    // times and keeps the last set, so set-up time is a median rather than
    // one sample; releasing the previous set is part of each repetition.
    Json setup_s = Json::array();
    Json model_set_build_s = Json::array();
    std::optional<tfetsram::device::ModelSet> models;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        models.reset();
        const Clock::time_point t1 = Clock::now();
        models = tfetsram::device::make_model_set();
        const Clock::time_point t2 = Clock::now();
        model_set_build_s.push_back(seconds_between(t1, t2));
        setup_s.push_back(seconds_between(t0, t2));
    }

    Bench bench{probe, *models, args.threads};
    Json rounds = Json::array();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t r = 0;; ++r) {
        const std::uint64_t episode =
            args.all_episodes ? r : (args.seed * 7 + r) % kEpisodes;
        double cycle_s = 0.0;
        for (const bool traced : {false, true}) {
            if (traced && !args.trace)
                continue;
            probe.set_tracing(traced);
            Outputs outputs;
            const Clock::time_point t0 = Clock::now();
            {
                const Probe::Scope root(probe, "bench.round", kNoSpan);
                round_fn(bench, episode, outputs);
            }
            const double wall = seconds_between(t0, Clock::now());
            cycle_s += wall;
            rounds.push_back(
                round_json(episode, traced, wall, probe.take_round(), outputs));
        }
        probe.set_tracing(false);
        if (args.all_episodes ? r + 1 >= kEpisodes
                              : seconds_between(start, Clock::now()) + cycle_s >
                                    args.seconds)
            break;
    }

    if (args.trace && !args.trace_file.empty() &&
        !probe.write_chrome_trace(args.trace_file)) {
        std::cerr << "perfbench: cannot write " << args.trace_file << "\n";
        return 1;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Json record = Json::object();
    record.set("workload", args.workload);
    record.set("seed", static_cast<double>(args.seed));
    record.set("threads", static_cast<std::uint64_t>(args.threads));
    record.set("setup_s", std::move(setup_s));
    record.set("model_set_build_s", std::move(model_set_build_s));
    record.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    record.set("rounds", std::move(rounds));
    std::cout << record.dump() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args)
        return 2;
    try {
        return run(*args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
