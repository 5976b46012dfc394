// Monte-Carlo engine tests: sampler bounds and determinism, metric
// plumbing, and the paper's Sec. 4.3 findings (WLcrit highly sensitive to
// tox variation, DRNM barely).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "mc/monte_carlo.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"

namespace tfetsram::mc {
namespace {

VariationSpec spec() {
    VariationSpec s;
    // Coarser tables keep these tests quick; fidelity is covered elsewhere.
    s.table_spec.points = 121;
    return s;
}

TEST(VariationSampler, ToxWithinBounds) {
    const TfetVariationSampler sampler(spec());
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const auto draw = sampler.sample(rng);
        EXPECT_GE(draw.tox, 2e-9 * 0.95);
        EXPECT_LE(draw.tox, 2e-9 * 1.05);
    }
}

TEST(VariationSampler, Deterministic) {
    const TfetVariationSampler sampler(spec());
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(sampler.sample(a).tox, sampler.sample(b).tox);
}

TEST(VariationSampler, MosfetsStayNominal) {
    const TfetVariationSampler sampler(spec());
    Rng rng(3);
    const auto d1 = sampler.sample(rng);
    const auto d2 = sampler.sample(rng);
    EXPECT_EQ(d1.models.nmos.get(), d2.models.nmos.get());
    EXPECT_EQ(d1.models.pmos.get(), d2.models.pmos.get());
    EXPECT_NE(d1.models.ntfet.get(), d2.models.ntfet.get());
}

TEST(VariationSampler, PerturbedDeviceShiftsCurrent) {
    const TfetVariationSampler sampler(spec());
    Rng rng(11);
    double lo = 1e9;
    double hi = -1e9;
    for (int i = 0; i < 20; ++i) {
        const auto draw = sampler.sample(rng);
        const double mid = draw.models.ntfet->iv(0.5, 0.8).ids;
        lo = std::min(lo, mid);
        hi = std::max(hi, mid);
    }
    EXPECT_GT(hi / lo, 1.5) << "tox variation must visibly move the I-V";
}

TEST(MonteCarlo, RunsMetricPerSample) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    std::atomic<int> calls{0};
    const McResult res = run_monte_carlo(
        spice::ambient_context(),
        cfg, sampler, 8, 99, [&](sram::SramCell& cell) {
            ++calls;
            return cell.config.vdd; // trivially constant metric
        });
    EXPECT_EQ(calls.load(), 8);
    EXPECT_EQ(res.samples.size(), 8u);
    EXPECT_EQ(res.tox_values.size(), 8u);
    EXPECT_DOUBLE_EQ(res.summary.mean, 0.8);
    EXPECT_NEAR(res.summary.stddev, 0.0, 1e-12);
}

TEST(MonteCarlo, SeedReproducible) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const auto metric = [](sram::SramCell& cell) {
        // Proxy metric keyed to the sampled device: mid-swing current.
        return cell.config.models.ntfet->iv(0.5, 0.8).ids;
    };
    const spice::SimContext& ctx = spice::ambient_context();
    const McResult a = run_monte_carlo(ctx, cfg, sampler, 6, 1234, metric);
    const McResult b = run_monte_carlo(ctx, cfg, sampler, 6, 1234, metric);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(MonteCarlo, HistogramCoversSamples) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const McResult res = run_monte_carlo(
        spice::ambient_context(), cfg, sampler, 16, 5,
        [](sram::SramCell& cell) {
            return cell.config.models.ntfet->iv(0.5, 0.8).ids;
        });
    const Histogram h = res.histogram(8);
    EXPECT_EQ(h.total(), 16u);
    EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(MonteCarlo, EnvSampleOverride) {
    EXPECT_EQ(mc_samples_from_env(37), 37u); // unset -> fallback
}

TEST(MonteCarlo, ParallelMatchesSerial) {
    // Determinism across thread counts: the draws are pre-generated, so
    // scheduling cannot change the result.
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const auto metric = [](sram::SramCell& cell) {
        return cell.config.models.ntfet->iv(0.5, 0.8).ids;
    };
    const spice::SimContext& ctx = spice::ambient_context();
    const McResult serial = run_monte_carlo(ctx, cfg, sampler, 8, 5, metric, 1);
    const McResult parallel =
        run_monte_carlo(ctx, cfg, sampler, 8, 5, metric, 4);
    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.tox_values, parallel.tox_values);
}

// ---- Sec. 4.3: the paper's sensitivity findings ----

TEST(Sec43Variation, WlcritVariesStronglyDrnmBarely) {
    // "WLcrit varies greatly under process variations ... In contrast, the
    // DRNM is hardly influenced." (beta = 0.6, GND-lowering RA design.)
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const sram::MetricOptions opts;

    const McResult wl = run_monte_carlo(
        spice::ambient_context(),
        cfg, sampler, 15, 77, [&](sram::SramCell& cell) {
            return sram::critical_wordline_pulse(cell, sram::Assist::kNone,
                                                 opts);
        });
    const McResult dr = run_monte_carlo(
        spice::ambient_context(),
        cfg, sampler, 15, 77, [&](sram::SramCell& cell) {
            const sram::DrnmResult d = sram::dynamic_read_noise_margin(
                cell, sram::Assist::kRaGndLowering, opts);
            return d.valid ? d.drnm : std::nan("");
        });
    ASSERT_GE(wl.summary.count, 10u);
    ASSERT_GE(dr.summary.count, 10u);
    const double wl_cv = wl.summary.stddev / wl.summary.mean;
    const double dr_cv = dr.summary.stddev / dr.summary.mean;
    EXPECT_GT(wl_cv, 0.08) << "WLcrit should vary strongly with tox";
    EXPECT_LT(dr_cv, 0.05) << "DRNM should be nearly immune";
    EXPECT_GT(wl_cv, 3.0 * dr_cv);
}

} // namespace
} // namespace tfetsram::mc
