#pragma once
// Batched lockstep Monte-Carlo (docs/YIELD.md). The serial engine in
// monte_carlo.hpp rebuilds the whole cell netlist — circuit, workspace,
// symbolic analysis, device-eval slot layout — for every sample, even
// though a draw only swaps device models. The lockstep engine instead
// keeps one persistent cell per worker lane and retargets its TFET models
// in place between samples, so all samples in a lane share one topology,
// one solver workspace (symbolic analysis + static-pivot ordering on the
// sparse path), and one DeviceEvalBatch slot layout.
//
// The contract is differential identity: same seeds produce bitwise-
// identical per-sample results and the same SolverStats counters as
// run_monte_carlo on the default (dense) 6T path, because a retargeted
// cell is numerically indistinguishable from a freshly built one — DC
// stamping carries no companion state, begin_transient() re-derives
// capacitor state from the operating point, and dc_seed is re-planted per
// sample. tests/test_mc_batch.cpp holds the contract; the one documented
// divergence is on a sparse-forced cell, where lane reuse performs one
// symbolic analysis per lane instead of one per sample.
//
// Draw flow: callers pick every sample's tox up front (the only RNG use);
// each lane extracts a sample's model set itself, after the sample's
// cancellation checkpoint, and drops it once the next sample retargets
// the lane cell — so memory is bounded by the lanes, not the block size.

#include <span>

#include "mc/monte_carlo.hpp"

namespace tfetsram::mc {

struct BatchOptions {
    std::size_t threads = 0; ///< worker lanes; 0 = hardware concurrency
    McPolicy policy;
    /// Child-context stream of tox[0]; sample i runs under stream
    /// `stream_offset + i`. The adaptive yield driver bumps this per round
    /// so every sample of a run keeps a globally unique, deterministic
    /// seed stream.
    std::uint64_t stream_offset = 0;
};

/// Lockstep bookkeeping for tests and bench counters. Accumulating: one
/// instance can total several run_sample_block rounds.
struct BatchStats {
    std::size_t lanes = 0;           ///< worker lanes spun up
    std::size_t cell_builds = 0;     ///< full netlist constructions
    std::size_t model_retargets = 0; ///< in-place swaps that skipped one
    std::size_t draws = 0; ///< model sets extracted (expired samples skip)
};

/// Evaluate `metric` at every thickness in `tox` through persistent
/// lockstep lanes; the lane running sample i builds its model set with
/// sampler.draw_at_tox(tox[i]) once the sample passes its cancellation
/// checkpoint. Sample i runs under ctx.child(stream_offset + i) with the
/// same cancellation checkpoints, retry policy (retries rebuild fresh cells,
/// exactly like the serial engine), and censoring semantics as
/// run_monte_carlo; child counters fold back into ctx in index order.
/// `nominal_seed` warm-starts each sample's first DC solve (pass
/// nominal_hold_seed(...) or empty for cold starts).
McResult run_sample_block(const spice::SimContext& ctx,
                          const sram::CellConfig& base_config,
                          const TfetVariationSampler& sampler,
                          std::span<const double> tox,
                          const CellMetric& metric,
                          const la::Vector& nominal_seed,
                          const BatchOptions& options = {},
                          BatchStats* stats = nullptr);

/// Drop-in replacement for run_monte_carlo: identical draws, child seed
/// streams, retry/censor behaviour, and (on the dense path) bitwise-
/// identical results and counters — evaluated through lockstep lanes.
McResult run_monte_carlo_batched(const spice::SimContext& ctx,
                                 const sram::CellConfig& base_config,
                                 const TfetVariationSampler& sampler,
                                 std::size_t n, std::uint64_t seed,
                                 const CellMetric& metric,
                                 std::size_t threads = 0,
                                 const McPolicy& policy = {},
                                 BatchStats* stats = nullptr);

} // namespace tfetsram::mc
