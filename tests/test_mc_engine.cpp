// Differential oracle for the Monte-Carlo engine (mc::run_monte_carlo):
// an independent serial reference that prebuilds every draw and walks
// the samples in index order must match the pooled engine bitwise —
// per-sample results, censor/retry bookkeeping and folded SolverStats —
// at 1 and 4 threads. A sparse-forced run pins the engine's analysis
// count: one fresh cell, so one symbolic analysis, per sample.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "spice/context.hpp"
#include "spice/solve_error.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"

namespace tfetsram::mc {
namespace {

sram::CellConfig test_cell() {
    return sram::proposed_design(0.8, device::make_model_set()).config;
}

VariationSpec coarse_variation() {
    VariationSpec vspec;
    vspec.table_spec.points = 121; // coarse tables keep the test fast
    return vspec;
}

CellMetric hold_power_metric() {
    return [](sram::SramCell& cell) {
        return sram::worst_hold_static_power(cell, sram::MetricOptions{});
    };
}

/// Per-sample results and bookkeeping must match exactly.
void expect_identical_results(const McResult& a, const McResult& b) {
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        if (std::isnan(a.samples[i]))
            EXPECT_TRUE(std::isnan(b.samples[i])) << "sample " << i;
        else
            EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
        EXPECT_EQ(a.tox_values[i], b.tox_values[i]) << "sample " << i;
        EXPECT_EQ(a.censored[i], b.censored[i]) << "sample " << i;
    }
    EXPECT_EQ(a.n_censored, b.n_censored);
    EXPECT_EQ(a.n_retried, b.n_retried);
    EXPECT_EQ(a.summary.count, b.summary.count);
    EXPECT_EQ(a.summary.mean, b.summary.mean);
    EXPECT_EQ(a.summary.stddev, b.summary.stddev);
}

/// Every schema field must agree exactly between the runs, except:
///  * sparse_ordering_us — wall-clock microseconds, not a work count.
void expect_identical_counters(const spice::SolverStats& a,
                               const spice::SolverStats& b) {
    for (const spice::StatField& f : spice::kSolverStatsFields) {
        if (f.member == &spice::SolverStats::sparse_ordering_us)
            continue;
        EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
    }
}

TEST(McBatch, SparseForcedPaysOneAnalysisPerSample) {
    // Forcing the sparse kernel on the 6T cell: every attempt builds a
    // fresh circuit, so the engine pays one symbolic analysis per sample
    // plus one for the nominal warm-start solve.
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    const CellMetric metric = hold_power_metric();
    constexpr std::size_t kN = 8;
    constexpr std::uint64_t kSeed = 11;

    spice::SimConfig sparse_cfg;
    sparse_cfg.mode = spice::SolverMode::kSparse;
    spice::SimContext ctx{sparse_cfg};
    const McResult res =
        run_monte_carlo(ctx, cfg, sampler, kN, kSeed, metric, /*threads=*/1);
    ASSERT_EQ(res.n_censored, 0u);
    EXPECT_EQ(ctx.stats().sparse_symbolic_analyses, kN + 1);
}

/// Independent serial reference for the in-pool draw flow: every draw is
/// prebuilt up front with sampler.sample(rng) — the pre-pool flow — and
/// evaluated in index order under ctx.child(i), with the engine's
/// sample-boundary cancellation checkpoint, fresh-cell retry and censoring
/// policy, and an index-ordered stats fold.
McResult prebuilt_serial_reference(const spice::SimContext& ctx,
                                   const sram::CellConfig& cfg,
                                   const TfetVariationSampler& sampler,
                                   std::size_t n, std::uint64_t seed,
                                   const CellMetric& metric,
                                   int max_attempts) {
    Rng rng(seed);
    std::vector<TfetVariationSampler::Draw> draws;
    for (std::size_t i = 0; i < n; ++i)
        draws.push_back(sampler.sample(rng));
    const la::Vector nominal = nominal_hold_seed(ctx, cfg);

    McResult res;
    for (std::size_t i = 0; i < n; ++i) {
        spice::SimContext cctx = ctx.child(i);
        const spice::ScopedContext bind(cctx);
        EXPECT_EQ(cctx.poll_cancellation(), spice::SolveErrorCode::kNone);
        double value = std::numeric_limits<double>::quiet_NaN();
        int attempts = 0;
        bool converged = false;
        while (!converged && attempts < max_attempts) {
            ++attempts;
            sram::CellConfig c = cfg;
            c.models = draws[i].models;
            sram::SramCell cell = sram::build_cell(c, &cctx);
            cell.dc_seed = nominal;
            try {
                value = metric(cell);
                converged = true;
            } catch (const spice::SolveException&) {
            }
        }
        if (attempts > 1 || !converged)
            ++res.n_retried;
        if (!converged)
            ++res.n_censored;
        res.samples.push_back(value);
        res.tox_values.push_back(draws[i].tox);
        res.censored.push_back(converged ? 0 : 1);
        ctx.stats() += cctx.stats();
    }
    res.summary = summarize(res.samples);
    return res;
}

TEST(McBatch, EnginesMatchPrebuiltSerialReference) {
    // Draws built inside the pool must be invisible: the engine, at 1 and
    // 4 threads, reproduces the prebuilt serial reference bitwise —
    // samples, tox, censor/retry bookkeeping and folded counters. The
    // failure schedule is keyed on each sample's child seed (not a call
    // counter), so it is the same under any thread interleaving: sample 2
    // fails every attempt (censored), samples 5 and 9 fail only their
    // first attempt (retried).
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    constexpr std::size_t kN = 12;
    constexpr std::uint64_t kSeed = 43;
    const McPolicy policy;

    const auto make_metric = [](const spice::SimContext& parent) {
        struct Schedule {
            std::mutex mu;
            std::map<std::uint64_t, int> calls; ///< child seed -> attempts
            std::uint64_t always = 0;
            std::vector<std::uint64_t> once;
        };
        auto sched = std::make_shared<Schedule>();
        sched->always = parent.child(2).seed();
        sched->once = {parent.child(5).seed(), parent.child(9).seed()};
        return CellMetric([sched](sram::SramCell& cell) {
            const std::uint64_t key = spice::ambient_context().seed();
            int call = 0;
            {
                const std::lock_guard<std::mutex> lock(sched->mu);
                call = ++sched->calls[key];
            }
            const bool once = std::find(sched->once.begin(),
                                        sched->once.end(),
                                        key) != sched->once.end();
            if (key == sched->always || (once && call == 1)) {
                spice::SolveError err;
                err.code = spice::SolveErrorCode::kNonConvergence;
                err.message = "scheduled metric failure";
                throw spice::SolveException(std::move(err));
            }
            return sram::worst_hold_static_power(cell,
                                                 sram::MetricOptions{});
        });
    };

    spice::SimContext ref_ctx{spice::SimConfig{}};
    const McResult ref =
        prebuilt_serial_reference(ref_ctx, cfg, sampler, kN, kSeed,
                                  make_metric(ref_ctx), policy.max_attempts);
    ASSERT_EQ(ref.n_censored, 1u);
    ASSERT_EQ(ref.n_retried, 3u);
    ASSERT_EQ(ref.censored[2], 1u);

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        spice::SimContext serial_ctx{spice::SimConfig{}};
        BatchStats stats;
        const McResult serial =
            run_monte_carlo(serial_ctx, cfg, sampler, kN, kSeed,
                            make_metric(serial_ctx), threads, policy, &stats);
        expect_identical_results(ref, serial);
        expect_identical_counters(ref_ctx.stats(), serial_ctx.stats());
        // One extraction per sample however many threads, and one cell
        // per attempt: sample 2 makes three, samples 5 and 9 two each.
        EXPECT_EQ(stats.lanes, threads);
        EXPECT_EQ(stats.draws, kN);
        EXPECT_EQ(stats.cell_builds, kN + 4);
    }
}

} // namespace
} // namespace tfetsram::mc
