// Non-finite values at the two places they used to slip through. The
// table lookup converted a NaN cell position to an index (undefined
// behaviour, so this binary rides the UBSan lane); it now answers NaN for
// any non-finite coordinate. Newton's convergence test is false for NaN,
// so a NaN update counted as converged; it is now a failed iteration, so
// DC escalates and fails and a transient shrinks dt and fails instead of
// completing a NaN waveform.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "device/models.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"

namespace tfetsram {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ----------------------------------------------------------- lookup

device::Grid2d ramp_grid() {
    device::Grid2d g(-1.0, 1.0, 9, -1.0, 1.0, 9);
    for (std::size_t iy = 0; iy < 9; ++iy)
        for (std::size_t ix = 0; ix < 9; ++ix)
            g.at(ix, iy) = 0.3 * static_cast<double>(ix) -
                           0.1 * static_cast<double>(iy * iy);
    return g;
}

TEST(NonFiniteLookup, EvalAnswersNaNForANonFiniteCoordinate) {
    const device::Grid2d g = ramp_grid();
    for (const auto& [x, y] : {std::pair{kNan, 0.2}, std::pair{0.2, kNan},
                               std::pair{kNan, kNan}, std::pair{kInf, 0.0},
                               std::pair{-kInf, 0.5}, std::pair{0.1, kInf},
                               std::pair{0.1, -kInf}}) {
        const device::Grid2d::Sample s = g.eval(x, y);
        EXPECT_TRUE(std::isnan(s.f)) << x << "," << y;
        EXPECT_TRUE(std::isnan(s.fx)) << x << "," << y;
        EXPECT_TRUE(std::isnan(s.fy)) << x << "," << y;
        const device::Grid2d::ValuePair v = device::Grid2d::values(g, g, x, y);
        EXPECT_TRUE(std::isnan(v.a) && std::isnan(v.b)) << x << "," << y;
    }
    // Finite points, on and off the table, stay finite.
    EXPECT_TRUE(std::isfinite(g.eval(0.3, -0.2).f));
    EXPECT_TRUE(std::isfinite(g.eval(5.0, -7.0).f));
}

TEST(NonFiniteLookup, TableModelsPassNaNThrough) {
    const device::ModelSet set = device::make_model_set();
    for (const auto& m : {set.ntfet, set.ptfet}) {
        const spice::CvSample c = m->cv(kNan, 0.4);
        EXPECT_TRUE(std::isnan(c.cgs) && std::isnan(c.cgd)) << m->name();
        EXPECT_TRUE(std::isnan(m->iv(0.3, kNan).ids)) << m->name();
    }
}

// ----------------------------------------------------------- Newton

/// Linear channel ids = k * vgs * vds whose current is NaN while vgs lies
/// in [lo, hi].
class NanWindow final : public spice::TransistorModel {
public:
    NanWindow(double lo, double hi) : lo_(lo), hi_(hi) {}
    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override {
        if (vgs >= lo_ && vgs <= hi_)
            return {kNan, kNan, kNan};
        return {kK * vgs * vds, kK * vds, kK * vgs};
    }
    [[nodiscard]] spice::CvSample cv(double, double) const override {
        return {1e-16, 1e-16};
    }
    [[nodiscard]] const char* name() const override { return "NaN window"; }

private:
    static constexpr double kK = 1e-4;
    double lo_;
    double hi_;
};

/// Gate driven by `gate`, drain through 1 kOhm from a 1 V rail.
struct Fixture {
    spice::Circuit c;
    Fixture(spice::Waveform gate, double lo, double hi) {
        const spice::NodeId g = c.add_node("g");
        const spice::NodeId d = c.add_node("d");
        const spice::NodeId rail = c.add_node("rail");
        c.add_vsource("VG", g, spice::kGround, std::move(gate));
        c.add_vsource("VDD", rail, spice::kGround, spice::Waveform::dc(1.0));
        c.add_resistor("R", rail, d, 1e3);
        c.add_transistor("M", std::make_shared<NanWindow>(lo, hi), d, g,
                         spice::kGround, 1.0);
    }
};

bool all_finite(const la::Vector& x) {
    for (double v : x)
        if (!std::isfinite(v))
            return false;
    return true;
}

TEST(NonFiniteNewton, DcNeverConvergesOnANaNUpdate) {
    // The only operating point (gate at 0.5 V) lies in the NaN window.
    Fixture f(spice::Waveform::dc(0.5), 0.4, 0.6);
    const spice::DcResult dc =
        spice::solve_dc(f.c, spice::ambient_context(), spice::SolverOptions{});
    EXPECT_FALSE(dc.converged);
    EXPECT_TRUE(dc.error.has_value());
    EXPECT_GE(dc.attempts.size(), 3u); // every strategy was tried
}

TEST(NonFiniteNewton, DcStillConvergesOutsideTheWindow) {
    Fixture f(spice::Waveform::dc(0.3), 0.4, 0.6);
    const spice::DcResult dc =
        spice::solve_dc(f.c, spice::ambient_context(), spice::SolverOptions{});
    ASSERT_TRUE(dc.converged);
    EXPECT_TRUE(all_finite(dc.x));
    EXPECT_EQ(dc.strategy, "newton");
}

TEST(NonFiniteNewton, TransientFailsInsteadOfCompletingANaNWaveform) {
    // The gate ramps into a NaN window that covers everything above 0.5 V.
    Fixture f(spice::Waveform::pwl({{0.0, 0.0}, {1e-9, 1.0}}), 0.5, 10.0);
    const spice::TransientResult tr =
        spice::solve_transient(f.c, spice::ambient_context(),
                               spice::SolverOptions{}, 2e-9);
    EXPECT_FALSE(tr.completed);
    ASSERT_TRUE(tr.error.has_value());
    // Newton accepts its last update without evaluating the devices there,
    // so the run may end a hair inside the window — never beyond it.
    EXPECT_LT(tr.time_reached, 0.51e-9);
    for (std::size_t i = 0; i < tr.size(); ++i)
        EXPECT_TRUE(all_finite(tr.state(i))) << "sample " << i;
}

} // namespace
} // namespace tfetsram
