// Mixed-vs-flat differential harness: on arrays small enough for the flat
// whole-array driver to serve as reference (up to 16x8), the mixed-level
// engine must reproduce operation outcomes (ok/value), storage-node
// separations, and read differentials — and its promotion/demotion/
// relinearization counters must be exactly the deterministic values the
// partition rules imply. This is the drift detector for everything the
// mixed engine approximates (latched linearization, per-operation
// partition rebuild) and for the timing constants both engines must share.
// A rerun oracle rides along: the same mixed-level sequence run twice in
// one process must cost exactly the same solver work.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "array/array.hpp"
#include "hier/mixed_array.hpp"
#include "spice/context.hpp"
#include "spice/stats.hpp"
#include "sram/designs.hpp"

namespace tfetsram::hier {
namespace {

// Storage-node separations: latched extraction points vs the flat
// aftermath of a transient — both hold states at the same bias.
constexpr double kSeparationTol = 0.02; // [V]
// Read differential: lumped linear leakage vs N device-level cells on a
// floating bitline.
constexpr double kDifferentialTol = 0.05; // [V]

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

array::ArrayConfig proposed_array(std::size_t rows, std::size_t cols) {
    array::ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.cell = sram::proposed_design(0.8, models()).config;
    cfg.read_assist = sram::Assist::kRaGndLowering;
    return cfg;
}

std::vector<std::vector<bool>> checker(std::size_t rows, std::size_t cols) {
    std::vector<std::vector<bool>> d(rows, std::vector<bool>(cols, false));
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            d[r][c] = (r + c) % 2 == 0;
    return d;
}

void expect_same_contents(array::SramArray& flat, MixedArray& mixed,
                          const char* where) {
    for (std::size_t r = 0; r < flat.rows(); ++r)
        for (std::size_t c = 0; c < flat.cols(); ++c) {
            EXPECT_EQ(flat.stored(r, c), mixed.stored(r, c))
                << where << " (" << r << "," << c << ")";
            EXPECT_NEAR(flat.separation(r, c), mixed.separation(r, c),
                        kSeparationTol)
                << where << " (" << r << "," << c << ")";
        }
}

TEST(HierDiff, WriteMatchesFlatOn8x4) {
    const array::ArrayConfig cfg = proposed_array(8, 4);
    array::SramArray flat(cfg);
    MixedArray mixed(cfg);
    const auto data = checker(8, 4);
    ASSERT_TRUE(flat.initialize(data));
    ASSERT_TRUE(mixed.initialize(data));
    expect_same_contents(flat, mixed, "after init");

    // Flip a 0 cell to 1 and a 1 cell to 0.
    const std::tuple<std::size_t, std::size_t, bool> flips[] = {
        {3, 0, false}, {4, 2, true}};
    for (const auto& [row, col, value] : flips) {
        const array::OpResult fr = flat.write(row, col, value);
        const array::OpResult mr = mixed.write(row, col, value);
        ASSERT_TRUE(fr.ok) << fr.message;
        ASSERT_TRUE(mr.ok) << mr.message;
        EXPECT_DOUBLE_EQ(fr.duration, mr.duration);
        expect_same_contents(flat, mixed, "after write");
    }
}

TEST(HierDiff, ReadMatchesFlatOn8x4) {
    const array::ArrayConfig cfg = proposed_array(8, 4);
    array::SramArray flat(cfg);
    MixedArray mixed(cfg);
    const auto data = checker(8, 4);
    ASSERT_TRUE(flat.initialize(data));
    ASSERT_TRUE(mixed.initialize(data));

    // One read per stored polarity, in the middle and at the edges.
    const std::size_t coords[][2] = {{0, 0}, {0, 1}, {3, 2}, {7, 3}};
    for (const auto& rc : coords) {
        const array::ReadResult fr = flat.read(rc[0], rc[1]);
        const array::ReadResult mr = mixed.read(rc[0], rc[1]);
        ASSERT_TRUE(fr.ok) << fr.message;
        ASSERT_TRUE(mr.ok) << mr.message;
        EXPECT_EQ(fr.value, mr.value) << rc[0] << "," << rc[1];
        EXPECT_EQ(fr.value, data[rc[0]][rc[1]]);
        EXPECT_NEAR(fr.differential, mr.differential, kDifferentialTol)
            << rc[0] << "," << rc[1];
        expect_same_contents(flat, mixed, "after read");
    }
}

// Satellite: half-select coverage under the mixed engine. A write to one
// column promotes every half-selected cell on the asserted row to SPICE
// level (they experience the pseudo-read disturb at device level, exactly
// like the flat reference), and their stored data survives in both.
TEST(HierDiff, HalfSelectedCellsPromoteAndSurvive) {
    const array::ArrayConfig cfg = proposed_array(8, 4);
    array::SramArray flat(cfg);
    MixedArray mixed(cfg);
    const auto data = checker(8, 4);
    ASSERT_TRUE(flat.initialize(data));
    ASSERT_TRUE(mixed.initialize(data));

    const std::size_t row = 2;
    const std::size_t col = 1;
    ASSERT_TRUE(flat.write(row, col, true).ok);
    ASSERT_TRUE(mixed.write(row, col, true).ok);

    // Every half-selected (row, c != col) cell shows up in the event
    // trace as a wordline-edge promotion...
    for (std::size_t c = 0; c < 4; ++c) {
        if (c == col)
            continue;
        const auto& trace = mixed.event_trace();
        const bool promoted = std::any_of(
            trace.begin(), trace.end(), [&](const Event& ev) {
                return ev.kind == EventKind::kPromote && ev.row == row &&
                       ev.col == c &&
                       ev.reason == PromoteReason::kWordlineEdge;
            });
        EXPECT_TRUE(promoted) << "half-selected (" << row << "," << c
                              << ") not promoted";
        // ... and survives the disturb with its data intact, matching
        // the flat reference (protected by the GND-lowering RA).
        EXPECT_EQ(mixed.stored(row, c), data[row][c]);
        EXPECT_EQ(flat.stored(row, c), mixed.stored(row, c));
    }
    expect_same_contents(flat, mixed, "after half-select write");
}

TEST(HierDiff, WriteReadSequenceMatchesFlatOn16x8) {
    const array::ArrayConfig cfg = proposed_array(16, 8);
    array::SramArray flat(cfg);
    MixedArray mixed(cfg);
    const auto data = checker(16, 8);
    ASSERT_TRUE(flat.initialize(data));
    ASSERT_TRUE(mixed.initialize(data));

    const array::OpResult fw = flat.write(9, 5, true);
    const array::OpResult mw = mixed.write(9, 5, true);
    ASSERT_TRUE(fw.ok) << fw.message;
    ASSERT_TRUE(mw.ok) << mw.message;
    const array::ReadResult fr = flat.read(9, 5);
    const array::ReadResult mr = mixed.read(9, 5);
    ASSERT_TRUE(fr.ok) << fr.message;
    ASSERT_TRUE(mr.ok) << mr.message;
    EXPECT_TRUE(fr.value);
    EXPECT_TRUE(mr.value);
    EXPECT_NEAR(fr.differential, mr.differential, kDifferentialTol);
    expect_same_contents(flat, mixed, "after write+read");

    // Exact deterministic counter contract for this sequence: the write
    // promotes the 8-cell row plus 2 sentinels, the read promotes the row
    // only; every promoted cell demotes; each op relinearizes the lumped
    // load of all 8 columns (every column keeps latched cells at 16 rows).
    const HierStats& st = mixed.stats();
    EXPECT_EQ(st.operations, 2u);
    EXPECT_EQ(st.promotions, (8u + 2u) + 8u);
    EXPECT_EQ(st.demotions, (8u + 2u) + 8u);
    EXPECT_EQ(st.relinearizations, 8u + 8u);
    EXPECT_EQ(st.guard_retries, 0u);
}

TEST(HierDiff, RerunInOneProcessRepeatsEverySolverCounter) {
    // Each run builds its own array under a fresh context; nothing a
    // first run leaves behind may change what the second one solves.
    const auto run = [] {
        const spice::SimContext ctx(spice::SimConfig{});
        MixedArray mixed(proposed_array(8, 4), HierConfig{}, &ctx);
        EXPECT_TRUE(mixed.initialize(checker(8, 4)));
        EXPECT_TRUE(mixed.write(3, 0, true).ok);
        EXPECT_TRUE(mixed.read(3, 0).ok);
        EXPECT_TRUE(mixed.read(4, 2).ok);
        return ctx.stats();
    };
    const spice::SolverStats first = run();
    const spice::SolverStats second = run();
    EXPECT_GT(first.dc_solves, 0u);
    for (const spice::StatField& f : spice::kSolverStatsFields) {
        if (f.member == &spice::SolverStats::sparse_ordering_us)
            continue; // wall time, not work
        EXPECT_EQ(first.*f.member, second.*f.member) << f.name;
    }
}

} // namespace
} // namespace tfetsram::hier
