#pragma once
// Monte-Carlo driver: rebuilds the cell with per-sample device models and
// evaluates an arbitrary metric, reproducing the occurrence histograms of
// Figs. 9 and 10.

#include <cstdint>
#include <functional>

#include "mc/variation.hpp"
#include "spice/context.hpp"
#include "sram/cell.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace tfetsram::mc {

/// Metric evaluated on each sampled cell. Return +/-inf or NaN for failure
/// outcomes (e.g. a write failure's infinite WLcrit); the summary keeps
/// them out of the moments but counts them. Throw spice::SolveException
/// for a solver failure ("could not evaluate this sample") — the driver
/// retries the sample and censors it if every attempt fails. The
/// distinction matters: a legit failure outcome is data; a non-converged
/// solve is a missing observation and must not contaminate the statistics.
using CellMetric = std::function<double(sram::SramCell&)>;

/// Retry/censoring policy for samples whose metric throws
/// spice::SolveException.
struct McPolicy {
    /// Total evaluation attempts per sample (>= 1). Each attempt rebuilds
    /// the cell from scratch, so device companion state restarts clean.
    int max_attempts = 3;
    /// Optional perturbed-restart hook: called before each retry
    /// (attempt >= 2) to nudge the rebuilt cell's config — e.g. tweak a
    /// solver option — deterministically in (attempt, sample index).
    std::function<void(sram::CellConfig& cfg, int attempt,
                       std::size_t sample_index)>
        reseed;
};

struct McResult {
    std::vector<double> samples; ///< metric values; NaN in censored slots
    std::vector<double> tox_values;
    /// Per-sample censor flag (1 = every attempt failed to converge; the
    /// samples[] slot holds NaN). uint8 rather than bool so concurrent
    /// per-index writes do not race on packed bits.
    std::vector<std::uint8_t> censored;
    std::size_t n_censored = 0; ///< samples with no converged evaluation
    std::size_t n_retried = 0;  ///< samples that needed more than 1 attempt
    SampleSummary summary;      ///< over non-censored samples only

    /// Histogram over the finite samples (paper-style occurrence plot).
    [[nodiscard]] Histogram histogram(std::size_t bins = 20) const {
        return Histogram::of(samples, bins);
    }
};

/// Run `n` samples under `ctx`. Each sample draws perturbed TFET models,
/// rebuilds the cell from `base_config` with them, and evaluates `metric`.
///
/// `threads` = 0 uses the hardware concurrency; 1 runs serially. Results
/// are deterministic in the seed regardless of the thread count (every
/// sample's tox is drawn up front from one RNG stream; the worker that
/// evaluates a sample extracts its model set after the sample's
/// cancellation checkpoint and drops it when the sample is done; metric
/// evaluations are independent because every worker gets its own cell).
/// The metric must therefore be safe to call concurrently on distinct
/// cells (all device models are immutable).
///
/// Every worker evaluates its sample under a child context of `ctx`
/// (derived seed stream = sample index), and when all samples finish the
/// children's solver counters are aggregated back into `ctx` in index
/// order — so ctx.stats() reflects the full fan-out, no matter which
/// pool threads did the work.
McResult run_monte_carlo(const spice::SimContext& ctx,
                         const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler, std::size_t n,
                         std::uint64_t seed, const CellMetric& metric,
                         std::size_t threads = 0,
                         const McPolicy& policy = {});

/// Compatibility entry: run under the caller's ambient context.
McResult run_monte_carlo(const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler, std::size_t n,
                         std::uint64_t seed, const CellMetric& metric,
                         std::size_t threads = 0,
                         const McPolicy& policy = {});

/// Solve the nominal cell's hold operating point once so every sample's
/// first DC solve can warm-start from it (the draws only perturb tox, so
/// each operating point is a small Newton correction away). A failed
/// nominal solve returns an empty vector — samples fall back to cold
/// starts. Shared by the serial and lockstep engines and the yield
/// estimator so all three spend identical solver work here.
la::Vector nominal_hold_seed(const spice::SimContext& ctx,
                             const sram::CellConfig& base_config);

/// Reads TFETSRAM_MC_SAMPLES from the environment, defaulting to
/// `fallback`; lets the long benches scale their sample counts.
std::size_t mc_samples_from_env(std::size_t fallback);

} // namespace tfetsram::mc
