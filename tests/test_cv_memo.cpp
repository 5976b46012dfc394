// The accepted-point C-V memo in spice::Transistor: the last (vgs, vds) ->
// CvSample, keyed on the bitwise bias pair, cleared by begin_transient. A
// hit must be bitwise the model call, so every run below equals the same
// run on a freshly built cell, whose memo holds nothing from earlier work:
// on a second transient of the same circuit, and on a transient-tape
// resume. The stamp-level cases place a stale entry exactly at the next
// stamp's bias, so a missing invalidation shows up as a different
// Jacobian. A counting model measures the saving.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "device/models.hpp"
#include "device/table_builder.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"
#include "spice/transient.hpp"
#include "spice/transistor.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"

namespace tfetsram {
namespace {

const device::ModelSet& nominal() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

bool same_bits(const void* a, const void* b, std::size_t bytes) {
    return std::memcmp(a, b, bytes) == 0;
}

void expect_identical(const spice::TransientResult& a,
                      const spice::TransientResult& b,
                      const std::string& what) {
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.message, b.message) << what;
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_TRUE(same_bits(a.times().data(), b.times().data(),
                          a.size() * sizeof(double)))
        << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.state(i).size(), b.state(i).size()) << what;
        ASSERT_TRUE(same_bits(a.state(i).data(), b.state(i).data(),
                              a.state(i).size() * sizeof(double)))
            << what << " sample " << i;
    }
}

/// Forwards I-V (batched too) and counts C-V calls.
class CountingModel final : public spice::TransistorModel {
public:
    explicit CountingModel(spice::TransistorModelPtr inner)
        : inner_(std::move(inner)) {}
    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override {
        return inner_->iv(vgs, vds);
    }
    void iv_many(const double* vgs, const double* vds, std::size_t n,
                 spice::IvSample* out) const override {
        inner_->iv_many(vgs, vds, n, out);
    }
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override {
        ++cv_calls;
        return inner_->cv(vgs, vds);
    }
    [[nodiscard]] const char* name() const override { return inner_->name(); }

    mutable std::atomic<std::uint64_t> cv_calls{0};

private:
    spice::TransistorModelPtr inner_;
};

// ------------------------------------------------------- stamp level

/// A lone transistor (drain node 1, gate node 2, source ground) stamped
/// in transient mode at `x`: the dense Jacobian, whose capacitor
/// conductances depend only on the C-V sample at x (not on the
/// companion history).
struct LoneDevice {
    spice::Transistor t;
    explicit LoneDevice(spice::TransistorModelPtr m)
        : t("M", std::move(m), 1, 2, spice::kGround, 1.0) {}

    static spice::AnalysisState step() {
        spice::AnalysisState as;
        as.mode = spice::AnalysisMode::kTransient;
        as.dt = 2e-12;
        return as;
    }
    la::Matrix jacobian(const la::Vector& x) {
        la::Matrix jac(2, 2);
        la::Vector rhs(2, 0.0);
        spice::SlotBinder b = spice::SlotBinder::dense(3, 2);
        t.bind(b);
        spice::Stamper st(jac.data(), rhs.data());
        t.stamp(st, step(), x);
        return jac;
    }
};

const la::Vector kStart = {0.05, 0.0};
const la::Vector kBias = {0.61, 0.43}; // vds, vgs

void expect_same_jacobian(const la::Matrix& a, const la::Matrix& b,
                          const std::string& what) {
    EXPECT_TRUE(same_bits(a.data(), b.data(), 4 * sizeof(double))) << what;
}

TEST(CvMemoStamp, BeginTransientRereadsATableEditedInPlace) {
    device::TableSpec spec;
    spec.points = 31;
    auto table = std::make_shared<device::DeviceTable>(
        *device::build_table(*device::make_ntfet(), spec));
    LoneDevice dev(table);
    dev.t.begin_transient(kStart);
    dev.t.accept_step(LoneDevice::step(), kBias);
    for (device::Grid2d* g : {&table->cgs_grid(), &table->cgd_grid()})
        for (std::size_t iy = 0; iy < g->ny(); ++iy)
            for (std::size_t ix = 0; ix < g->nx(); ++ix)
                g->at(ix, iy) *= 3.0;
    dev.t.begin_transient(kStart);
    const la::Matrix got = dev.jacobian(kBias);

    LoneDevice fresh(table);
    fresh.t.begin_transient(kStart);
    expect_same_jacobian(got, fresh.jacobian(kBias), "after begin_transient");
}

TEST(CvMemoStamp, RepeatedBiasHitsAndAnyOtherBitMisses) {
    auto counting = std::make_shared<CountingModel>(nominal().ntfet);
    LoneDevice dev(counting);
    dev.t.begin_transient(kStart);
    dev.t.accept_step(LoneDevice::step(), kBias);
    EXPECT_EQ(counting->cv_calls, 1u);
    const la::Matrix hit = dev.jacobian(kBias);
    EXPECT_EQ(counting->cv_calls, 1u); // warm start: the accepted point
    // One ulp away, and -0.0 against +0.0, are different keys.
    la::Vector near = kBias;
    near[1] = std::nextafter(near[1], 1.0);
    (void)dev.jacobian(near);
    EXPECT_EQ(counting->cv_calls, 2u);
    const la::Vector pos_zero = {0.3, 0.0};
    const la::Vector neg_zero = {0.3, -0.0};
    (void)dev.jacobian(pos_zero);
    (void)dev.jacobian(neg_zero);
    EXPECT_EQ(counting->cv_calls, 4u);
    // A NaN bias never hits, not even a NaN it just evaluated.
    const la::Vector nan_bias = {0.3, std::nan("")};
    (void)dev.jacobian(nan_bias);
    (void)dev.jacobian(nan_bias);
    EXPECT_EQ(counting->cv_calls, 6u);

    LoneDevice fresh(nominal().ntfet);
    fresh.t.begin_transient(kStart);
    expect_same_jacobian(hit, fresh.jacobian(kBias), "memo hit");
}

// ----------------------------------------------------- circuit level

sram::CellConfig beta2_config(const device::ModelSet& models) {
    sram::CellConfig cfg = sram::proposed_design(0.8, models).config;
    cfg.beta = 2.0;
    return cfg;
}

/// Writes into one cell, each from the hold state solved once at
/// construction (programmed as the longest write, as the WLcrit bisection
/// programs it).
struct Writer {
    sram::SramCell cell;
    bool value;
    la::Vector hold;

    explicit Writer(const sram::CellConfig& cfg)
        : cell(sram::build_cell(cfg)),
          value(sram::preferred_write_value(cell)) {
        sram::program_write(cell, value, 6e-9, sram::Assist::kNone);
        const sram::HoldState h =
            sram::solve_hold_state(cell, !value, spice::SolverOptions{});
        TFET_ASSERT(h.converged && h.state_ok);
        hold = h.x;
    }

    /// Program a write of `pulse` and run it from `guess`.
    spice::TransientResult run(double pulse, const la::Vector& guess,
                               spice::TransientTape* tape = nullptr) {
        const sram::OperationWindow w =
            sram::program_write(cell, value, pulse, sram::Assist::kNone);
        return spice::solve_transient(cell.circuit, spice::SolverOptions{},
                                      w.t_end, nullptr, &guess, tape);
    }
};

TEST(CvMemoCircuit, SecondTransientOnTheSameCircuitMatchesAFreshCell) {
    Writer cell(beta2_config(nominal()));
    const spice::TransientResult first = cell.run(0.7e-9, cell.hold);
    const spice::TransientResult second = cell.run(0.7e-9, cell.hold);
    ASSERT_TRUE(second.completed);
    expect_identical(second, first, "second run");
    Writer fresh(beta2_config(nominal()));
    expect_identical(second, fresh.run(0.7e-9, fresh.hold), "fresh cell");
}

TEST(CvMemoCircuit, TapeResumeMatchesAFreshCell) {
    Writer cell(beta2_config(nominal()));
    spice::TransientTape tape;
    ASSERT_TRUE(cell.run(6e-9, cell.hold, &tape).completed);
    ASSERT_FALSE(tape.empty());
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = cell.run(0.4e-9, cell.hold, &tape);
    EXPECT_GT((spice::solver_stats() - before).transient_steps_replayed, 0u);
    ASSERT_TRUE(resumed.completed);

    Writer fresh(beta2_config(nominal()));
    expect_identical(resumed, fresh.run(0.4e-9, fresh.hold), "resumed");
}

TEST(CvMemoCircuit, WriteTransientMakesAQuarterFewerCvCalls) {
    const auto cn = std::make_shared<CountingModel>(nominal().ntfet);
    const auto cp = std::make_shared<CountingModel>(nominal().ptfet);
    device::ModelSet counted = nominal();
    counted.ntfet = cn;
    counted.ptfet = cp;
    Writer cell(beta2_config(counted));
    std::size_t transistors = 0;
    for (const auto& dev : cell.cell.circuit.devices())
        transistors += dynamic_cast<spice::Transistor*>(dev.get()) != nullptr;
    ASSERT_GT(transistors, 0u);

    // The transient's own t = 0 operating point, solved alone on a twin
    // cell: its assemblies stamp no capacitors.
    Writer twin(beta2_config(nominal()));
    sram::program_write(twin.cell, twin.value, 1e-9, sram::Assist::kNone);
    const spice::SolverStats dc_before = spice::solver_stats();
    ASSERT_TRUE(spice::solve_dc(twin.cell.circuit, spice::SolverOptions{}, 0.0,
                                &cell.hold)
                    .converged);
    const std::uint64_t dc_assemblies =
        (spice::solver_stats() - dc_before).assemblies;

    cn->cv_calls = 0;
    cp->cv_calls = 0;
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult tr = cell.run(1e-9, cell.hold);
    ASSERT_TRUE(tr.completed);
    const spice::SolverStats d = spice::solver_stats() - before;

    // Without the memo every transient stamp and every accepted step asks
    // the model once per transistor.
    const std::uint64_t memo_free =
        transistors * (d.assemblies - dc_assemblies + d.transient_steps);
    const std::uint64_t calls = cn->cv_calls + cp->cv_calls;
    EXPECT_GT(calls, 0u);
    EXPECT_LE(4 * calls, 3 * memo_free)
        << calls << " C-V calls, " << memo_free << " without the memo";
}

} // namespace
} // namespace tfetsram
