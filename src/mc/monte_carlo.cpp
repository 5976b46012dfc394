#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>

#include "runner/thread_pool.hpp"
#include "spice/dc.hpp"
#include "spice/solve_error.hpp"
#include "sram/operations.hpp"
#include "util/env.hpp"

namespace tfetsram::mc {

McResult run_monte_carlo(const spice::SimContext& ctx,
                         const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler, std::size_t n,
                         std::uint64_t seed, const CellMetric& metric,
                         std::size_t threads, const McPolicy& policy,
                         BatchStats* stats) {
    TFET_EXPECTS(n >= 1);
    // Draw every thickness up front from one stream — the only RNG use —
    // so the results are independent of how the evaluations are
    // scheduled. The model sets themselves (the per-draw table
    // extraction) are built inside the pool, one per sample.
    std::vector<double> tox(n);
    Rng rng(seed);
    for (double& t : tox)
        t = sampler.sample_tox(rng);
    const la::Vector nominal_seed = nominal_hold_seed(ctx, base_config);
    return run_monte_carlo(ctx, base_config, sampler, tox, nominal_seed,
                           /*stream_offset=*/0, metric, threads, policy,
                           stats);
}

McResult run_monte_carlo(const spice::SimContext& ctx,
                         const sram::CellConfig& base_config,
                         const TfetVariationSampler& sampler,
                         std::span<const double> tox,
                         const la::Vector& nominal_seed,
                         std::uint64_t stream_offset,
                         const CellMetric& metric, std::size_t threads,
                         const McPolicy& policy, BatchStats* stats) {
    const std::size_t n = tox.size();
    TFET_EXPECTS(n >= 1);
    TFET_EXPECTS(metric != nullptr);
    TFET_EXPECTS(policy.max_attempts >= 1);

    McResult result;
    result.samples.assign(n, 0.0);
    result.tox_values.assign(n, 0.0);
    result.censored.assign(n, 0);
    std::atomic<std::size_t> n_censored{0};
    std::atomic<std::size_t> n_retried{0};
    std::atomic<std::size_t> cell_builds{0};
    std::atomic<std::size_t> draws{0};

    // One child context per sample: an isolated stats sink plus a seed
    // stream derived deterministically from (ctx seed, global sample
    // index). The fault plan is shared, so injection budgets span the
    // whole batch.
    std::vector<std::unique_ptr<spice::SimContext>> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        children.push_back(std::make_unique<spice::SimContext>(
            ctx.child(stream_offset + i)));

    // Fan the draws and evaluations out through the shared concurrency
    // substrate.
    threads = std::min(runner::ThreadPool::resolve(threads), n);
    runner::ThreadPool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) {
        spice::SimContext& cctx = *children[i];
        const spice::ScopedContext bind(cctx);
        double value = std::numeric_limits<double>::quiet_NaN();
        bool converged = false;
        int attempt = 1;
        // Sample-boundary cancellation checkpoint, ahead of the draw:
        // once the batch's token fires or its deadline expires, remaining
        // samples censor without spending a table extraction or a solve —
        // they flow into n_censored exactly like non-converged samples,
        // and censored_yield_interval's worst-case imputation covers them.
        const bool expired =
            cctx.poll_cancellation() != spice::SolveErrorCode::kNone;
        device::ModelSet models;
        if (!expired) {
            models = sampler.draw_at_tox(tox[i]).models;
            draws.fetch_add(1, std::memory_order_relaxed);
        }
        for (; !expired && attempt <= policy.max_attempts; ++attempt) {
            // Rebuild from scratch every attempt: fresh device companion
            // state is itself a re-seeded restart, and the reseed hook can
            // additionally perturb the config before the retry.
            sram::CellConfig cfg = base_config;
            cfg.models = models;
            if (attempt > 1 && policy.reseed)
                policy.reseed(cfg, attempt, i);
            sram::SramCell cell = sram::build_cell(cfg, &cctx);
            cell_builds.fetch_add(1, std::memory_order_relaxed);
            cell.dc_seed = nominal_seed; // ignored when sizes mismatch
            try {
                value = metric(cell);
                converged = true;
                break;
            } catch (const spice::SolveException& e) {
                // Non-converged solve: this attempt produced no
                // observation. Retry (or censor when attempts run out) —
                // unless the failure was a cancellation, which a retry
                // under the same expired context can only repeat.
                if (spice::is_cancellation(e.error().code) ||
                    cctx.cancellation_status() !=
                        spice::SolveErrorCode::kNone)
                    break;
            }
        }
        if (attempt > 1)
            n_retried.fetch_add(1, std::memory_order_relaxed);
        if (!converged)
            n_censored.fetch_add(1, std::memory_order_relaxed);
        result.samples[i] = value;
        result.censored[i] = converged ? 0 : 1;
        result.tox_values[i] = tox[i];
    });
    // parallel_for is a barrier, so the children's counters are quiescent
    // here; fold them into the parent in index order (deterministic sums,
    // gauges keep the maximum). This closes the attribution gap where MC
    // work done on pool threads vanished from the caller's counters.
    for (const auto& child : children)
        ctx.stats() += child->stats();
    result.n_censored = n_censored.load();
    result.n_retried = n_retried.load();
    if (stats != nullptr) {
        stats->lanes += threads;
        stats->cell_builds += cell_builds.load();
        stats->draws += draws.load();
    }
    // NaN censored slots fall out of the summary on their own (they are
    // neither finite nor infinite).
    result.summary = summarize(result.samples);
    return result;
}

la::Vector nominal_hold_seed(const spice::SimContext& ctx,
                             const sram::CellConfig& base_config) {
    sram::SramCell nominal = sram::build_cell(base_config, &ctx);
    sram::program_hold(nominal);
    spice::DcResult d = spice::solve_dc(nominal.circuit, ctx, 0.0);
    if (d.converged)
        return std::move(d.x);
    return {};
}

std::size_t mc_samples_from_env(std::size_t fallback) {
    // Read live (not from the process snapshot): the long benches let a
    // wrapper script resize the batch between runs of one process.
    const long long v = env::get_int("TFETSRAM_MC_SAMPLES", 0);
    return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

} // namespace tfetsram::mc
