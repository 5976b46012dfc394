// Tests for the Monte-Carlo statistics extensions: regression,
// log-log sensitivity, yield intervals — plus the physical payoff: the
// measured tox sensitivity of WLcrit.

#include <gtest/gtest.h>

#include <cmath>

#include "mc/monte_carlo.hpp"
#include "mc/statistics.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/rng.hpp"

namespace tfetsram::mc {
namespace {

TEST(Regression, ExactLine) {
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {3, 5, 7, 9, 11}; // y = 2x + 1
    const Regression r = linear_regression(x, y);
    EXPECT_EQ(r.count, 5u);
    EXPECT_NEAR(r.slope, 2.0, 1e-12);
    EXPECT_NEAR(r.intercept, 1.0, 1e-12);
    EXPECT_NEAR(r.correlation, 1.0, 1e-12);
}

TEST(Regression, IgnoresNonFinite) {
    const std::vector<double> x = {1, 2, std::nan(""), 4};
    const std::vector<double> y = {2, 4, 6, 8};
    const Regression r = linear_regression(x, y);
    EXPECT_EQ(r.count, 3u);
    EXPECT_NEAR(r.slope, 2.0, 1e-12);
}

TEST(Regression, NoisyDataCorrelationBelowOne) {
    Rng rng(5);
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        const double xi = rng.uniform(0, 1);
        x.push_back(xi);
        y.push_back(3.0 * xi + rng.normal(0.0, 0.3));
    }
    const Regression r = linear_regression(x, y);
    EXPECT_NEAR(r.slope, 3.0, 0.3);
    EXPECT_GT(r.correlation, 0.8);
    EXPECT_LT(r.correlation, 1.0);
}

TEST(Sensitivity, PowerLawRecovered) {
    // y = c x^4 -> log-log slope 4.
    std::vector<double> x;
    std::vector<double> y;
    for (double xi = 0.5; xi <= 2.0; xi += 0.1) {
        x.push_back(xi);
        y.push_back(7.0 * std::pow(xi, 4.0));
    }
    EXPECT_NEAR(log_log_sensitivity(x, y), 4.0, 1e-9);
}

TEST(Yield, IntervalBracketsPoint) {
    const YieldInterval yi = yield_interval(45, 50);
    EXPECT_NEAR(yi.point, 0.9, 1e-12);
    EXPECT_LT(yi.lower, 0.9);
    EXPECT_GT(yi.upper, 0.9);
    EXPECT_GT(yi.lower, 0.75);
    EXPECT_LT(yi.upper, 0.99);
}

TEST(Yield, PerfectSampleStillUncertain) {
    // 20/20 passing does NOT prove 100 % yield.
    const YieldInterval yi = yield_interval(20, 20);
    EXPECT_DOUBLE_EQ(yi.point, 1.0);
    EXPECT_LT(yi.lower, 0.9);
    EXPECT_DOUBLE_EQ(yi.upper, 1.0);
}

TEST(Yield, TightensWithSamples) {
    const YieldInterval small = yield_interval(9, 10);
    const YieldInterval large = yield_interval(900, 1000);
    EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(Yield, ZeroTrialsAreVacuousNotFatal) {
    // An all-censored batch must flow into the BENCH artifact as a
    // vacuous interval, not abort the run on a contract violation.
    const YieldInterval yi = yield_interval(0, 0);
    EXPECT_TRUE(std::isnan(yi.point));
    EXPECT_EQ(yi.lower, 0.0);
    EXPECT_EQ(yi.upper, 1.0);
}

TEST(Yield, AllCensoredIntervalIsVacuous) {
    // Zero evaluated, five censored: nothing observed, so the point is
    // NaN and the worst-case imputations span everything.
    const YieldInterval yi = censored_yield_interval(0, 0, 5);
    EXPECT_TRUE(std::isnan(yi.point));
    EXPECT_LT(yi.lower, 0.05);
    EXPECT_GT(yi.upper, 0.95);
}

TEST(Yield, CensoredReducesToPlainWhenNothingCensored) {
    const YieldInterval plain = yield_interval(45, 50);
    const YieldInterval censored = censored_yield_interval(45, 50, 0);
    EXPECT_EQ(plain.point, censored.point);
    EXPECT_EQ(plain.lower, censored.lower);
    EXPECT_EQ(plain.upper, censored.upper);
}

TEST(NormalQuantile, AgreesWithCdf) {
    for (const double p : {1e-9, 1e-5, 0.01, 0.3, 0.5, 0.9, 0.999}) {
        const double z = normal_quantile(p);
        EXPECT_NEAR(normal_cdf(z), p, 1e-12 + 1e-10 * p) << p;
    }
}

TEST(Sensitivity, WlcritVsToxIsSteeplyNegative) {
    // The physical payoff: thinner oxide -> higher field -> faster write.
    // With the field ~ (tox_nom/tox)^2 inside an exponential, the log-log
    // sensitivity of WLcrit to tox is large and positive (thicker = much
    // slower).
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    VariationSpec vspec;
    vspec.table_spec.points = 121;
    const TfetVariationSampler sampler(vspec);
    const sram::MetricOptions opts;
    const McResult res = run_monte_carlo(
        spice::ambient_context(), cfg, sampler, 12, 31,
        [&](sram::SramCell& cell) {
            return sram::critical_wordline_pulse(cell, sram::Assist::kNone,
                                                 opts);
        });
    const double s = log_log_sensitivity(res.tox_values, res.samples);
    EXPECT_GT(s, 2.0) << "WLcrit must rise steeply with tox";
    const Regression r = linear_regression(res.tox_values, res.samples);
    EXPECT_GT(r.correlation, 0.9) << "tox should dominate the variation";
}

} // namespace
} // namespace tfetsram::mc
