#include "mc/batch.hpp"

#include <limits>
#include <memory>
#include <optional>

#include "runner/thread_pool.hpp"
#include "spice/solve_error.hpp"
#include "util/contracts.hpp"

namespace tfetsram::mc {

McResult run_sample_block(const spice::SimContext& ctx,
                          const sram::CellConfig& base_config,
                          const TfetVariationSampler& sampler,
                          std::span<const double> tox,
                          const CellMetric& metric,
                          const la::Vector& nominal_seed,
                          const BatchOptions& options, BatchStats* stats) {
    const std::size_t n = tox.size();
    TFET_EXPECTS(n >= 1);
    TFET_EXPECTS(metric != nullptr);
    TFET_EXPECTS(options.policy.max_attempts >= 1);

    McResult result;
    result.samples.assign(n, 0.0);
    result.tox_values.assign(n, 0.0);
    result.censored.assign(n, 0);
    std::size_t n_censored = 0;
    std::size_t n_retried = 0;

    // Same child-context scheme as the serial engine: one isolated stats
    // sink per sample, seed stream derived from (ctx seed, global sample
    // index), shared fault plan.
    std::vector<std::unique_ptr<spice::SimContext>> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        children.push_back(std::make_unique<spice::SimContext>(
            ctx.child(options.stream_offset + i)));

    // Contiguous stripes: lane l owns samples [l*n/L, (l+1)*n/L), so the
    // persistent lane cell walks its samples in index order and the
    // sample->result mapping is independent of scheduling.
    const std::size_t lanes =
        std::min(runner::ThreadPool::resolve(options.threads), n);
    std::vector<std::size_t> lane_builds(lanes, 0);
    std::vector<std::size_t> lane_retargets(lanes, 0);
    std::vector<std::size_t> lane_draws(lanes, 0);
    std::vector<std::size_t> lane_censored(lanes, 0);
    std::vector<std::size_t> lane_retried(lanes, 0);

    runner::ThreadPool pool(lanes);
    pool.parallel_for(lanes, [&](std::size_t lane) {
        const std::size_t lo = lane * n / lanes;
        const std::size_t hi = (lane + 1) * n / lanes;
        std::optional<sram::SramCell> lane_cell;
        std::uint64_t lane_topology = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            spice::SimContext& cctx = *children[i];
            const spice::ScopedContext bind(cctx);
            double value = std::numeric_limits<double>::quiet_NaN();
            bool converged = false;
            int attempt = 1;
            // Sample-boundary cancellation checkpoint, identical to the
            // serial engine: once the batch's token fires, remaining
            // samples censor without spending a draw or a solve.
            const bool expired =
                cctx.poll_cancellation() != spice::SolveErrorCode::kNone;
            device::ModelSet models;
            if (!expired) {
                models = sampler.draw_at_tox(tox[i]).models;
                ++lane_draws[lane];
            }
            for (; !expired && attempt <= options.policy.max_attempts;
                 ++attempt) {
                // First attempt runs on the persistent lane cell (built
                // once, then retargeted in place per sample); retries
                // rebuild from scratch exactly like the serial engine, so
                // a perturbed restart gets fresh companion state and the
                // reseed hook's config tweaks.
                const bool lockstep = attempt == 1;
                std::optional<sram::SramCell> scratch;
                sram::SramCell* cell = nullptr;
                if (lockstep && lane_cell) {
                    sram::retarget_models(*lane_cell, models);
                    lane_cell->sim = &cctx; // attribute this sample's work
                    ++lane_retargets[lane];
                    cell = &*lane_cell;
                } else {
                    sram::CellConfig cfg = base_config;
                    cfg.models = models;
                    if (attempt > 1 && options.policy.reseed)
                        options.policy.reseed(cfg, attempt, i);
                    ++lane_builds[lane];
                    if (lockstep) {
                        lane_cell.emplace(sram::build_cell(cfg, &cctx));
                        cell = &*lane_cell;
                    } else {
                        scratch.emplace(sram::build_cell(cfg, &cctx));
                        cell = &*scratch;
                    }
                }
                if (lockstep)
                    lane_topology = lane_cell->circuit.topology_revision();
                cell->dc_seed = nominal_seed; // ignored on size mismatch
                bool stop = false;
                try {
                    value = metric(*cell);
                    converged = true;
                    stop = true;
                } catch (const spice::SolveException& e) {
                    // Non-converged solve: retry, unless the failure was a
                    // cancellation a retry under the same expired context
                    // could only repeat.
                    stop = spice::is_cancellation(e.error().code) ||
                           cctx.cancellation_status() !=
                               spice::SolveErrorCode::kNone;
                }
                // A metric that grew the circuit (e.g. SNM's probe source)
                // leaves the lane cell off-topology; drop it so the next
                // sample rebuilds instead of drifting from the serial
                // engine's fresh-cell semantics.
                if (lockstep && lane_cell->circuit.topology_revision() !=
                                    lane_topology)
                    lane_cell.reset();
                if (stop)
                    break;
            }
            if (attempt > 1)
                ++lane_retried[lane];
            if (!converged)
                ++lane_censored[lane];
            result.samples[i] = value;
            result.censored[i] = converged ? 0 : 1;
            result.tox_values[i] = tox[i];
        }
    });
    // parallel_for is a barrier: children are quiescent, fold their
    // counters into the parent in index order (same as serial).
    for (const auto& child : children)
        ctx.stats() += child->stats();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        n_censored += lane_censored[lane];
        n_retried += lane_retried[lane];
    }
    if (stats != nullptr) {
        stats->lanes += lanes;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            stats->cell_builds += lane_builds[lane];
            stats->model_retargets += lane_retargets[lane];
            stats->draws += lane_draws[lane];
        }
    }
    result.n_censored = n_censored;
    result.n_retried = n_retried;
    result.summary = summarize(result.samples);
    return result;
}

McResult run_monte_carlo_batched(const spice::SimContext& ctx,
                                 const sram::CellConfig& base_config,
                                 const TfetVariationSampler& sampler,
                                 std::size_t n, std::uint64_t seed,
                                 const CellMetric& metric,
                                 std::size_t threads, const McPolicy& policy,
                                 BatchStats* stats) {
    TFET_EXPECTS(n >= 1);
    // Identical up-front tox stream and nominal warm-start solve as the
    // serial engine, so the two are sample-for-sample comparable.
    std::vector<double> tox(n);
    Rng rng(seed);
    for (double& t : tox)
        t = sampler.sample_tox(rng);
    const la::Vector nominal_seed = nominal_hold_seed(ctx, base_config);

    BatchOptions options;
    options.threads = threads;
    options.policy = policy;
    return run_sample_block(ctx, base_config, sampler, tox, metric,
                            nominal_seed, options, stats);
}

} // namespace tfetsram::mc
