// Statistical harness for the rare-event yield estimator (src/mc/yield.hpp):
// the importance-sampled tail estimate is validated against closed-form
// Gaussian tail probabilities on an analytic linear failure surface
// (fail iff u > k, so p = normal_tail(k) exactly), across several fixed
// seeds, with its confidence interval, sample efficiency, determinism,
// and censoring conservatism all asserted.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "mc/statistics.hpp"
#include "mc/yield.hpp"
#include "spice/stats.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"

namespace tfetsram::mc {
namespace {

TEST(NormalHelpers, TailMatchesKnownValues) {
    // Phi(-4) to 6 digits; the 4-sigma failure probability the paper-scale
    // yield targets are expressed in.
    EXPECT_NEAR(normal_tail(4.0), 3.16712e-5, 3.16712e-5 * 1e-4);
    EXPECT_NEAR(normal_tail(0.0), 0.5, 1e-15);
    EXPECT_NEAR(normal_cdf(1.0) + normal_tail(1.0), 1.0, 1e-15);
}

TEST(NormalHelpers, QuantileRoundTrip) {
    for (const double x : {-4.0, -1.5, 0.0, 0.5, 2.0, 4.0})
        EXPECT_NEAR(normal_quantile(normal_cdf(x)), x, 1e-10) << x;
    EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-8);
    EXPECT_EQ(normal_quantile(0.0), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(normal_quantile(1.0), std::numeric_limits<double>::infinity());
}

TEST(Mixture, DefensiveShiftCapsWeights) {
    const GaussianMixture g = GaussianMixture::shifted(4.0, 0.1);
    EXPECT_FALSE(g.is_nominal());
    EXPECT_NEAR(g.weight_bound(), 10.0, 1e-12);
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const double u = g.sample(rng);
        const double w = g.importance_weight(u);
        EXPECT_GT(w, 0.0);
        EXPECT_LE(w, g.weight_bound() * (1.0 + 1e-12)) << u;
    }
    EXPECT_TRUE(GaussianMixture::nominal().is_nominal());
    EXPECT_NEAR(GaussianMixture::nominal().weight_bound(), 1.0, 1e-12);
    // At the shift center the proposal is denser than the nominal, so the
    // weight is far below 1 — that is what buys the variance reduction.
    EXPECT_LT(g.importance_weight(4.0), 0.01);
}

TEST(YieldIS, FourSigmaTailWithinCIAcrossSeeds) {
    // Analytic failure surface: fail iff u > 4, so p = normal_tail(4)
    // exactly. Plain Monte-Carlo needs ~1/p ~ 31600 samples to even
    // observe one failure; the acceptance bar is the true p inside the
    // reported 95% CI at >= 10x fewer solves, for every seed.
    const double p_true = normal_tail(4.0);
    YieldOptions options;
    options.proposal = GaussianMixture::shifted(4.0);
    options.batch = 64;
    options.min_samples = 128;
    options.max_samples = 4096;
    options.min_failures = 8;
    options.target_rel_halfwidth = 0.25;
    const YieldProbe probe = [](double u, std::size_t) {
        return u > 4.0 ? SampleVerdict::kFail : SampleVerdict::kPass;
    };
    for (const std::uint64_t seed : {11u, 17u, 3333u}) {
        const YieldEstimate est = estimate_yield(options, seed, probe);
        EXPECT_TRUE(est.converged) << "seed " << seed;
        EXPECT_GE(p_true, est.lower) << "seed " << seed;
        EXPECT_LE(p_true, est.upper) << "seed " << seed;
        EXPECT_NEAR(est.p_fail, p_true, 0.5 * p_true) << "seed " << seed;
        EXPECT_LE(est.n_samples,
                  static_cast<std::size_t>(0.1 / p_true))
            << "seed " << seed << ": needed " << est.n_samples
            << " samples, 10x-efficiency bar is " << 0.1 / p_true;
        EXPECT_GT(est.sigma_level, 3.5) << "seed " << seed;
        EXPECT_LT(est.sigma_level, 4.5) << "seed " << seed;
    }
}

TEST(YieldIS, DeterministicInSeed) {
    YieldOptions options;
    options.proposal = GaussianMixture::shifted(3.0);
    options.batch = 32;
    options.min_samples = 64;
    options.max_samples = 512;
    options.min_failures = 4;
    const YieldProbe probe = [](double u, std::size_t) {
        return u > 3.0 ? SampleVerdict::kFail : SampleVerdict::kPass;
    };
    const YieldEstimate a = estimate_yield(options, 42, probe);
    const YieldEstimate b = estimate_yield(options, 42, probe);
    EXPECT_EQ(a.p_fail, b.p_fail);
    EXPECT_EQ(a.lower, b.lower);
    EXPECT_EQ(a.upper, b.upper);
    EXPECT_EQ(a.ess, b.ess);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.n_fail, b.n_fail);
    EXPECT_EQ(a.converged, b.converged);
}

TEST(YieldIS, AdaptiveStoppingOnCommonFailure) {
    // p = 0.1 under the plain nominal proposal: the adaptive loop should
    // stop well before the budget once the Wilson interval tightens.
    const double threshold = normal_quantile(0.9);
    YieldOptions options; // nominal proposal
    options.batch = 64;
    options.min_samples = 64;
    options.max_samples = 4096;
    options.min_failures = 8;
    options.target_rel_halfwidth = 0.25;
    const YieldProbe probe = [threshold](double u, std::size_t) {
        return u > threshold ? SampleVerdict::kFail : SampleVerdict::kPass;
    };
    const YieldEstimate est = estimate_yield(options, 7, probe);
    EXPECT_TRUE(est.converged);
    EXPECT_LT(est.n_samples, options.max_samples);
    EXPECT_GE(0.1, est.lower);
    EXPECT_LE(0.1, est.upper);
    // Unit weights: the draws are worth exactly themselves.
    EXPECT_NEAR(est.ess, static_cast<double>(est.n_samples),
                1e-9 * static_cast<double>(est.n_samples));
}

TEST(YieldIS, ZeroFailuresGiveConservativeUpperBound) {
    YieldOptions options; // nominal proposal
    options.batch = 64;
    options.min_samples = 128;
    options.max_samples = 128;
    const YieldProbe probe = [](double, std::size_t) {
        return SampleVerdict::kPass;
    };
    const YieldEstimate est = estimate_yield(options, 13, probe);
    EXPECT_FALSE(est.converged); // never saw min_failures
    EXPECT_EQ(est.n_fail, 0u);
    EXPECT_EQ(est.p_fail, 0.0);
    EXPECT_EQ(est.sigma_level, std::numeric_limits<double>::infinity());
    // 128 clean samples do NOT prove p = 0: the upper bound stays off
    // zero, but should be small.
    EXPECT_GT(est.upper, 0.0);
    EXPECT_LT(est.upper, 0.06);
}

TEST(YieldIS, CensoringWidensConservativeBounds) {
    YieldOptions options;
    options.proposal = GaussianMixture::shifted(3.0);
    options.batch = 64;
    options.min_samples = 256;
    options.max_samples = 256;
    options.min_failures = 4;
    const YieldProbe probe = [](double u, std::size_t index) {
        if (index % 8 == 0)
            return SampleVerdict::kCensored;
        return u > 3.0 ? SampleVerdict::kFail : SampleVerdict::kPass;
    };
    const YieldEstimate est = estimate_yield(options, 29, probe);
    EXPECT_EQ(est.n_censored, est.n_samples / 8);
    EXPECT_GT(est.n_fail, 0u);
    // Worst-case imputation brackets the as-evaluated interval.
    EXPECT_LE(est.lower_censored, est.lower);
    EXPECT_GE(est.upper_censored, est.upper);
    EXPECT_GT(est.upper_censored, est.upper); // censoring must cost width
    EXPECT_GE(est.p_fail, est.lower);
    EXPECT_LE(est.p_fail, est.upper);
}

TEST(YieldIS, AllCensoredIsVacuousNotFatal) {
    YieldOptions options;
    options.batch = 16;
    options.min_samples = 16;
    options.max_samples = 16;
    const YieldProbe probe = [](double, std::size_t) {
        return SampleVerdict::kCensored;
    };
    const YieldEstimate est = estimate_yield(options, 1, probe);
    EXPECT_EQ(est.n_censored, est.n_samples);
    EXPECT_TRUE(std::isnan(est.p_fail));
    EXPECT_EQ(est.lower_censored, 0.0);
    EXPECT_EQ(est.upper_censored, 1.0);
    EXPECT_FALSE(est.converged);
}

/// Hold static power beyond its own +2 sigma log-linear projection on the
/// real 6T cell, with a small budget: a wiring case for the cell driver
/// (the estimator math is pinned above).
struct HoldPowerTail {
    CellYieldProblem problem;
    YieldOptions options;
};

HoldPowerTail hold_power_tail() {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    VariationSpec vspec;
    vspec.table_spec.points = 121;
    const sram::MetricOptions opts;

    const TfetVariationSampler sampler(vspec);
    const auto metric = [opts](sram::SramCell& cell) {
        return sram::worst_hold_static_power(cell, opts);
    };
    const auto eval_at = [&](double u) {
        sram::CellConfig c = cfg;
        c.models = sampler.sample_at(u).models;
        sram::SramCell cell = sram::build_cell(c);
        return metric(cell);
    };
    const double p0 = eval_at(0.0);
    const double slope = (std::log(eval_at(1.0)) - std::log(eval_at(-1.0))) / 2.0;
    EXPECT_TRUE(p0 > 0.0 && std::isfinite(slope) && slope != 0.0);

    HoldPowerTail c;
    c.problem.config = cfg;
    c.problem.variation = vspec;
    c.problem.metric = metric;
    c.problem.fails = [p0, slope](double v) {
        return (std::log(v) - std::log(p0)) / slope > 2.0;
    };
    // In t-space the slope's sign cancels (t(u) ~ u under the log-linear
    // model), so the failure region is u > 2 for either leakage polarity.
    c.options.proposal = GaussianMixture::shifted(2.0);
    c.options.batch = 16;
    c.options.min_samples = 16;
    c.options.max_samples = 48;
    c.options.min_failures = 2;
    c.options.target_rel_halfwidth = 0.5;
    return c;
}

TEST(YieldIS, CellYieldSmokeDeterministic) {
    const HoldPowerTail c = hold_power_tail();
    const YieldOptions& options = c.options;

    BatchStats stats;
    const YieldEstimate a = estimate_cell_yield(
        spice::ambient_context(), c.problem, options, 99, /*threads=*/1,
        McPolicy{}, &stats);
    EXPECT_GE(a.n_samples, options.min_samples);
    EXPECT_EQ(a.n_censored, 0u);
    EXPECT_GT(a.n_fail, 0u) << "the 2-sigma surface should be reachable";
    EXPECT_EQ(stats.draws, a.n_samples);
    EXPECT_GE(a.upper, a.p_fail);
    EXPECT_LE(a.lower, a.p_fail);

    const YieldEstimate b = estimate_cell_yield(
        spice::ambient_context(), c.problem, options, 99, /*threads=*/1);
    EXPECT_EQ(a.p_fail, b.p_fail);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.n_fail, b.n_fail);
    EXPECT_EQ(a.lower, b.lower);
    EXPECT_EQ(a.upper, b.upper);
}

TEST(YieldIS, CellYieldIdenticalAcrossThreadCounts) {
    // The engine schedules each round's samples dynamically, so which
    // worker runs a sample depends on timing. Sample i still runs under
    // child stream i and the counters fold in index order, so one and four
    // threads give the same estimate and the same solver work.
    const HoldPowerTail c = hold_power_tail();
    spice::SimContext serial_ctx{spice::SimConfig{}};
    const YieldEstimate serial = estimate_cell_yield(
        serial_ctx, c.problem, c.options, 7, /*threads=*/1);
    spice::SimContext pool_ctx{spice::SimConfig{}};
    const YieldEstimate pooled = estimate_cell_yield(
        pool_ctx, c.problem, c.options, 7, /*threads=*/4);

    EXPECT_EQ(serial.p_fail, pooled.p_fail);
    EXPECT_EQ(serial.lower, pooled.lower);
    EXPECT_EQ(serial.upper, pooled.upper);
    EXPECT_EQ(serial.lower_censored, pooled.lower_censored);
    EXPECT_EQ(serial.upper_censored, pooled.upper_censored);
    EXPECT_EQ(serial.sigma_level, pooled.sigma_level);
    EXPECT_EQ(serial.ess, pooled.ess);
    EXPECT_EQ(serial.n_samples, pooled.n_samples);
    EXPECT_EQ(serial.n_fail, pooled.n_fail);
    EXPECT_EQ(serial.n_censored, pooled.n_censored);
    EXPECT_EQ(serial.converged, pooled.converged);
    EXPECT_GT(serial.n_fail, 0u);

    // sparse_ordering_us is wall-clock microseconds, not a work count.
    for (const spice::StatField& f : spice::kSolverStatsFields) {
        if (f.member == &spice::SolverStats::sparse_ordering_us)
            continue;
        EXPECT_EQ(serial_ctx.stats().*f.member, pool_ctx.stats().*f.member)
            << f.name;
    }
    EXPECT_GT(serial_ctx.stats().nr_iterations, 0u);
}

} // namespace
} // namespace tfetsram::mc
