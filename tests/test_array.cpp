// Array-level tests: construction, initialization, functional write/read
// sequences, data retention of unaccessed cells, half-select behaviour,
// and a march-style pattern sweep.

#include <gtest/gtest.h>

#include <limits>

#include "array/array.hpp"
#include "spice/solve_error.hpp"
#include "sram/designs.hpp"

namespace tfetsram::array {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

ArrayConfig proposed_array(std::size_t rows, std::size_t cols) {
    ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.cell = sram::proposed_design(0.8, models()).config;
    cfg.read_assist = sram::Assist::kRaGndLowering;
    return cfg;
}

std::vector<std::vector<bool>> pattern(std::size_t rows, std::size_t cols,
                                       bool checker) {
    std::vector<std::vector<bool>> d(rows, std::vector<bool>(cols, false));
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            d[r][c] = checker ? ((r + c) % 2 == 0) : false;
    return d;
}

TEST(Array, BuildsExpectedTopology) {
    SramArray arr(proposed_array(3, 2));
    EXPECT_EQ(arr.rows(), 3u);
    EXPECT_EQ(arr.cols(), 2u);
    EXPECT_EQ(arr.circuit().transistors().size(), 3u * 2u * 6u);
}

TEST(Array, InitializeEstablishesPattern) {
    SramArray arr(proposed_array(3, 2));
    const auto data = pattern(3, 2, true);
    ASSERT_TRUE(arr.initialize(data));
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(arr.stored(r, c), data[r][c]) << r << "," << c;
            EXPECT_GT(arr.separation(r, c), 0.7);
        }
}

TEST(Array, WriteFlipsOnlyTheTarget) {
    SramArray arr(proposed_array(3, 2));
    ASSERT_TRUE(arr.initialize(pattern(3, 2, false))); // all zero
    const OpResult res = arr.write(1, 0, true);
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(arr.stored(1, 0));
    // Everyone else still holds 0 — including the half-selected (1,1).
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            if (r == 1 && c == 0)
                continue;
            EXPECT_FALSE(arr.stored(r, c)) << r << "," << c;
            EXPECT_GT(arr.separation(r, c), 0.7) << r << "," << c;
        }
}

TEST(Array, ReadReturnsStoredValueNonDestructively) {
    SramArray arr(proposed_array(2, 2));
    std::vector<std::vector<bool>> data = {{true, false}, {false, true}};
    ASSERT_TRUE(arr.initialize(data));
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            const ReadResult res = arr.read(r, c);
            ASSERT_TRUE(res.ok) << res.message;
            EXPECT_EQ(res.value, data[r][c]) << r << "," << c;
            // Non-destructive: data intact afterwards.
            EXPECT_EQ(arr.stored(r, c), data[r][c]);
        }
}

TEST(Array, HalfSelectProtectedBySegmentedGround) {
    // The paper's Sec. 4.3 drawback: at beta = 0.6 a half-selected cell
    // sees a read-disturb. With per-column segmented virtual grounds ([7]
    // in the paper), the GND-lowering assist protects the unselected
    // columns while the written column keeps its nominal ground.
    ArrayConfig cfg = proposed_array(1, 2); // read_assist = GND lowering
    SramArray arr(cfg);
    ASSERT_TRUE(arr.initialize({{false, false}}));
    const OpResult res = arr.write(0, 0, true);
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_FALSE(arr.stored(0, 1)) << "half-selected cell must hold its 0";
    EXPECT_GT(arr.separation(0, 1), 0.7);
}

TEST(Array, HalfSelectHazardWithoutAssist) {
    // Without the protecting assist, the half-selected cell at beta = 0.6
    // is in exactly the unassisted-read condition that flips (Fig. 7e's
    // "no assist" row). This documents the hazard the paper warns about.
    ArrayConfig cfg = proposed_array(1, 2);
    cfg.read_assist = sram::Assist::kNone;
    SramArray arr(cfg);
    ASSERT_TRUE(arr.initialize({{false, false}}));
    const OpResult res = arr.write(0, 0, true);
    ASSERT_TRUE(res.message.empty() || res.ok) << res.message;
    // The half-selected (0,1) flips or at least loses most of its margin.
    const bool disturbed =
        arr.stored(0, 1) != false || arr.separation(0, 1) < 0.4;
    EXPECT_TRUE(disturbed)
        << "expected the unprotected half-selected cell to be disturbed";
}

TEST(Array, WriteAssistNotRequiredNote) {
    // The array's write_assist knob accepts read assists deliberately: the
    // paper's design applies GND lowering on every row access. A write
    // assist is also accepted for completeness.
    ArrayConfig cfg = proposed_array(1, 1);
    cfg.write_assist = sram::Assist::kWaGndRaising;
    SramArray arr(cfg);
    ASSERT_TRUE(arr.initialize({{false}}));
    const OpResult res = arr.write(0, 0, true);
    EXPECT_TRUE(res.ok) << res.message;
}

TEST(Array, MarchLikePatternSweep) {
    // March element: ascending write 1 + read back, then descending write
    // 0 + read back — a functional screen across every cell.
    SramArray arr(proposed_array(2, 2));
    ASSERT_TRUE(arr.initialize(pattern(2, 2, false)));
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            ASSERT_TRUE(arr.write(r, c, true).ok) << r << "," << c;
            const ReadResult rd = arr.read(r, c);
            ASSERT_TRUE(rd.ok && rd.value) << r << "," << c;
        }
    for (std::size_t r = 2; r-- > 0;)
        for (std::size_t c = 2; c-- > 0;) {
            ASSERT_TRUE(arr.write(r, c, false).ok) << r << "," << c;
            const ReadResult rd = arr.read(r, c);
            ASSERT_TRUE(rd.ok && !rd.value) << r << "," << c;
        }
}

TEST(Array, CmosArrayWorksWithoutAssists) {
    ArrayConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.cell = sram::cmos_design(0.8, models()).config;
    SramArray arr(cfg);
    ASSERT_TRUE(arr.initialize(pattern(2, 2, true)));
    const OpResult w = arr.write(0, 1, true);
    ASSERT_TRUE(w.ok) << w.message;
    const ReadResult rd = arr.read(0, 1);
    EXPECT_TRUE(rd.ok && rd.value);
    // Checker neighbours untouched: (1,0) held its 0, (1,1) its 1.
    EXPECT_FALSE(arr.stored(1, 0));
    EXPECT_TRUE(arr.stored(1, 1));
}

TEST(Array, RejectsUnsupportedTopology) {
    ArrayConfig cfg = proposed_array(1, 1);
    cfg.cell.kind = sram::CellKind::kTfet7T;
    EXPECT_THROW(SramArray{cfg}, contract_violation);
}

TEST(Array, RejectsOutOfRangeAccess) {
    SramArray arr(proposed_array(2, 3));
    ASSERT_TRUE(arr.initialize(pattern(2, 3, true)));
    EXPECT_THROW(arr.write(2, 0, true), contract_violation);
    EXPECT_THROW(arr.write(0, 3, true), contract_violation);
    EXPECT_THROW(arr.read(2, 0), contract_violation);
    EXPECT_THROW(arr.read(0, 3), contract_violation);
}

TEST(Array, RejectsDegenerateConfigs) {
    auto expect_invalid = [](ArrayConfig cfg, const char* what) {
        try {
            const SramArray arr(cfg);
            FAIL() << what << " must be rejected";
        } catch (const spice::SolveException& e) {
            EXPECT_EQ(e.error().code, spice::SolveErrorCode::kInvalidConfig)
                << what;
            EXPECT_NE(e.error().message.find("ArrayConfig"),
                      std::string::npos)
                << what;
        }
    };
    ArrayConfig cfg = proposed_array(2, 2);

    ArrayConfig bad = cfg;
    bad.rows = 0;
    expect_invalid(bad, "rows = 0");
    bad = cfg;
    bad.cols = 0;
    expect_invalid(bad, "cols = 0");
    bad = cfg;
    bad.c_bitline_per_row = 0.0;
    expect_invalid(bad, "zero bitline cap");
    bad = cfg;
    bad.c_bitline_per_row = -2e-15;
    expect_invalid(bad, "negative bitline cap");
    bad = cfg;
    bad.c_bitline_per_row = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(bad, "NaN bitline cap");
    bad = cfg;
    bad.cell.vdd = 0.0;
    expect_invalid(bad, "zero supply");
    bad = cfg;
    bad.write_pulse = 0.0;
    expect_invalid(bad, "zero write pulse");
    bad = cfg;
    bad.read_duration = -1e-12;
    expect_invalid(bad, "negative read duration");
    bad = cfg;
    bad.sense_margin = -0.1;
    expect_invalid(bad, "negative sense margin");

    // validate_config is also callable directly (the mixed-level engine
    // shares it) and accepts the nominal configuration.
    EXPECT_NO_THROW(validate_config(cfg));
}

} // namespace
} // namespace tfetsram::array
