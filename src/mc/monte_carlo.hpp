#pragma once
// Monte-Carlo driver: rebuilds the cell with per-sample device models and
// evaluates an arbitrary metric, reproducing the occurrence histograms of
// Figs. 9 and 10.

#include <cstdint>
#include <functional>
#include <span>

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

/// Engine bookkeeping for tests and bench counters. Accumulating: one
/// instance can total several run_monte_carlo calls (the yield
/// estimator's rounds).
struct BatchStats {
    std::size_t lanes = 0;       ///< worker threads spun up
    std::size_t cell_builds = 0; ///< cells built (one per attempt)
    /// Always 0: the engine never swaps models under a live cell. Kept
    /// only because perfbench reports it as `mc.model_retargets`.
    std::size_t model_retargets = 0;
    std::size_t draws = 0; ///< model sets extracted (expired samples skip)
};

/// Run `n` samples under `ctx`. Each sample draws perturbed TFET models,
/// rebuilds the cell from `base_config` with them, and evaluates `metric`.
/// Every thickness is drawn up front from `seed`'s one RNG stream, and
/// each sample's first DC solve warm-starts from the nominal hold state
/// (nominal_hold_seed); then the samples run as the overload below with
/// stream offset 0.
McResult run_monte_carlo(const spice::SimContext& ctx,
                         const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler, std::size_t n,
                         std::uint64_t seed, const CellMetric& metric,
                         std::size_t threads = 0,
                         const McPolicy& policy = {},
                         BatchStats* stats = nullptr);

/// The Monte-Carlo engine: evaluate `metric` at every thickness in `tox`.
/// Sample i builds its model set with sampler.draw_at_tox(tox[i]) once it
/// passes its cancellation checkpoint, builds a fresh cell for every
/// attempt, plants `nominal_seed` as the cell's DC warm start (empty for
/// cold starts), and runs under ctx.child(stream_offset + i).
///
/// `threads` = 0 uses the hardware concurrency; 1 runs serially. Samples
/// are scheduled dynamically, and results are deterministic for every
/// thread count: each index writes only its own slots and depends only on
/// its own thickness and child context, and each sample's model set lives
/// only while the sample runs, so memory is bounded by the draws in
/// flight, not by n. The metric must therefore be safe to call
/// concurrently on distinct cells (all device models are immutable).
/// When all samples finish, the children's solver counters fold back
/// into `ctx` in index order, so ctx.stats() reflects the full fan-out no
/// matter which pool threads did the work.
McResult run_monte_carlo(const spice::SimContext& ctx,
                         const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler,
                         std::span<const double> tox,
                         const la::Vector& nominal_seed,
                         std::uint64_t stream_offset,
                         const CellMetric& metric, std::size_t threads = 0,
                         const McPolicy& policy = {},
                         BatchStats* stats = nullptr);

/// Solve the nominal cell's hold operating point once so every sample's
/// first DC solve can warm-start from it (the draws only perturb tox, so
/// each operating point is a small Newton correction away). A failed
/// nominal solve returns an empty vector — samples fall back to cold
/// starts.
la::Vector nominal_hold_seed(const spice::SimContext& ctx,
                             const sram::CellConfig& base_config);

/// Reads TFETSRAM_MC_SAMPLES from the environment, defaulting to
/// `fallback`; lets the long benches scale their sample counts.
std::size_t mc_samples_from_env(std::size_t fallback);

} // namespace tfetsram::mc
