// Differential tests for the batched lockstep Monte-Carlo engine
// (src/mc/batch.hpp): on the dense 6T path, lockstep lane reuse must be
// bitwise-invisible — same seeds produce identical per-sample results,
// identical censor/retry bookkeeping, and identical SolverStats counters
// as the serial engine. The one documented divergence (sparse-forced
// cells share one symbolic analysis per lane) is pinned here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mc/batch.hpp"
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

/// Every schema field must agree exactly between the engines, except:
///  * sparse_ordering_us — wall-clock microseconds, not a work count.
void expect_identical_counters(const spice::SolverStats& a,
                               const spice::SolverStats& b) {
    for (const spice::StatField& f : spice::kSolverStatsFields) {
        if (f.member == &spice::SolverStats::sparse_ordering_us)
            continue;
        EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
    }
}

TEST(McBatch, DenseBitwiseIdenticalSerialLane) {
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    const CellMetric metric = hold_power_metric();
    constexpr std::size_t kN = 12;
    constexpr std::uint64_t kSeed = 31;

    spice::SimContext serial_ctx{spice::SimConfig{}};
    const McResult serial = run_monte_carlo(serial_ctx, cfg, sampler, kN,
                                            kSeed, metric, /*threads=*/1);
    ASSERT_EQ(serial.n_censored, 0u);

    spice::SimContext batch_ctx{spice::SimConfig{}};
    BatchStats stats;
    const McResult batched =
        run_monte_carlo_batched(batch_ctx, cfg, sampler, kN, kSeed, metric,
                                /*threads=*/1, McPolicy{}, &stats);

    expect_identical_results(serial, batched);
    expect_identical_counters(serial_ctx.stats(), batch_ctx.stats());
    // One persistent lane: one build, every later sample retargeted.
    EXPECT_EQ(stats.lanes, 1u);
    EXPECT_EQ(stats.cell_builds, 1u);
    EXPECT_EQ(stats.model_retargets, kN - 1);
}

TEST(McBatch, DenseBitwiseIdenticalAcrossLaneCounts) {
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    const CellMetric metric = hold_power_metric();
    constexpr std::size_t kN = 12;
    constexpr std::uint64_t kSeed = 77;

    spice::SimContext serial_ctx{spice::SimConfig{}};
    const McResult serial = run_monte_carlo(serial_ctx, cfg, sampler, kN,
                                            kSeed, metric, /*threads=*/1);

    spice::SimContext batch_ctx{spice::SimConfig{}};
    BatchStats stats;
    const McResult batched =
        run_monte_carlo_batched(batch_ctx, cfg, sampler, kN, kSeed, metric,
                                /*threads=*/4, McPolicy{}, &stats);

    expect_identical_results(serial, batched);
    // Counters fold back into the parent in index order, so the totals
    // match the serial run even across 4 lanes.
    expect_identical_counters(serial_ctx.stats(), batch_ctx.stats());
    EXPECT_EQ(stats.lanes, 4u);
    EXPECT_EQ(stats.cell_builds, 4u);
    EXPECT_EQ(stats.model_retargets, kN - 4);
}

TEST(McBatch, TransientMetricIdentical) {
    // WLcrit drives transient solves through the retargeted cell:
    // begin_transient must re-derive companion state identically on a
    // reused cell, or this diverges.
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    const sram::MetricOptions opts;
    const CellMetric metric = [opts](sram::SramCell& cell) {
        return sram::critical_wordline_pulse(cell, sram::Assist::kNone,
                                             opts);
    };
    constexpr std::size_t kN = 6;
    constexpr std::uint64_t kSeed = 19;

    spice::SimContext serial_ctx{spice::SimConfig{}};
    const McResult serial = run_monte_carlo(serial_ctx, cfg, sampler, kN,
                                            kSeed, metric, /*threads=*/1);

    spice::SimContext batch_ctx{spice::SimConfig{}};
    const McResult batched = run_monte_carlo_batched(
        batch_ctx, cfg, sampler, kN, kSeed, metric, /*threads=*/1);

    expect_identical_results(serial, batched);
    expect_identical_counters(serial_ctx.stats(), batch_ctx.stats());
}

TEST(McBatch, RetryAndCensorParity) {
    // A metric that fails on a fixed call schedule: sample 1 needs one
    // retry, sample 3 exhausts every attempt and is censored. With one
    // lane both engines walk the identical call sequence
    // (0, 1, 1, 2, 3, 3, 3, 4, 5), so a shared call counter addresses
    // the same attempts in both runs.
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    constexpr std::size_t kN = 6;
    constexpr std::uint64_t kSeed = 5;

    const auto make_metric = [](int* calls) {
        return [calls](sram::SramCell& cell) {
            const int call = (*calls)++;
            const bool fail =
                call == 1 || call == 4 || call == 5 || call == 6;
            if (fail) {
                spice::SolveError err;
                err.code = spice::SolveErrorCode::kNonConvergence;
                err.message = "injected metric failure";
                throw spice::SolveException(std::move(err));
            }
            return sram::worst_hold_static_power(cell,
                                                 sram::MetricOptions{});
        };
    };

    spice::SimContext serial_ctx{spice::SimConfig{}};
    int serial_calls = 0;
    const McResult serial =
        run_monte_carlo(serial_ctx, cfg, sampler, kN, kSeed,
                        make_metric(&serial_calls), /*threads=*/1);
    EXPECT_EQ(serial_calls, 9);

    spice::SimContext batch_ctx{spice::SimConfig{}};
    int batch_calls = 0;
    const McResult batched = run_monte_carlo_batched(
        batch_ctx, cfg, sampler, kN, kSeed, make_metric(&batch_calls),
        /*threads=*/1);
    EXPECT_EQ(batch_calls, 9);

    const std::array<std::uint8_t, kN> expect_censored = {0, 0, 0, 1, 0, 0};
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(batched.censored[i], expect_censored[i]) << i;
    EXPECT_EQ(batched.n_censored, 1u);
    EXPECT_EQ(batched.n_retried, 2u);
    expect_identical_results(serial, batched);
    expect_identical_counters(serial_ctx.stats(), batch_ctx.stats());
}

TEST(McBatch, SparseForcedSharesSymbolicAnalysisPerLane) {
    // The documented divergence: forcing the sparse kernel on the 6T cell
    // makes the serial engine pay one symbolic analysis per sample (fresh
    // circuit each time) while the lockstep engine pays one per lane and
    // refactors on the reused pivot sequence. Values then agree only to
    // rounding (the pivot order can differ), not bitwise.
    const sram::CellConfig cfg = test_cell();
    const TfetVariationSampler sampler(coarse_variation());
    const CellMetric metric = hold_power_metric();
    constexpr std::size_t kN = 8;
    constexpr std::uint64_t kSeed = 11;

    spice::SimConfig sparse_cfg;
    sparse_cfg.mode = spice::SolverMode::kSparse;

    spice::SimContext serial_ctx{sparse_cfg};
    const McResult serial = run_monte_carlo(serial_ctx, cfg, sampler, kN,
                                            kSeed, metric, /*threads=*/1);
    ASSERT_EQ(serial.n_censored, 0u);

    spice::SimContext batch_ctx{sparse_cfg};
    BatchStats stats;
    const McResult batched =
        run_monte_carlo_batched(batch_ctx, cfg, sampler, kN, kSeed, metric,
                                /*threads=*/1, McPolicy{}, &stats);
    ASSERT_EQ(batched.n_censored, 0u);

    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_NEAR(batched.samples[i], serial.samples[i],
                    1e-9 * std::abs(serial.samples[i]) + 1e-15)
            << "sample " << i;

    // Serial: one analysis per sample plus the nominal warm-start solve.
    // Lockstep: one per lane plus the nominal solve.
    EXPECT_EQ(serial_ctx.stats().sparse_symbolic_analyses, kN + 1);
    EXPECT_EQ(batch_ctx.stats().sparse_symbolic_analyses,
              stats.lanes + 1);
    EXPECT_GT(batch_ctx.stats().sparse_static_pivot_hits, 0u);
}

/// Independent serial reference for the in-pool draw flow: every draw is
/// prebuilt up front with sampler.sample(rng) — the pre-pool flow — and
/// evaluated in index order under ctx.child(i), with the engines'
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
    // Draws built inside the pool must be invisible: both engines, at 1
    // and 4 threads, reproduce the prebuilt serial reference bitwise —
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
        const McResult serial =
            run_monte_carlo(serial_ctx, cfg, sampler, kN, kSeed,
                            make_metric(serial_ctx), threads, policy);
        expect_identical_results(ref, serial);
        expect_identical_counters(ref_ctx.stats(), serial_ctx.stats());

        spice::SimContext batch_ctx{spice::SimConfig{}};
        BatchStats stats;
        const McResult batched = run_monte_carlo_batched(
            batch_ctx, cfg, sampler, kN, kSeed, make_metric(batch_ctx),
            threads, policy, &stats);
        expect_identical_results(ref, batched);
        expect_identical_counters(ref_ctx.stats(), batch_ctx.stats());
        // One extraction per sample, however many lanes.
        EXPECT_EQ(stats.draws, kN);
    }
}

} // namespace
} // namespace tfetsram::mc
