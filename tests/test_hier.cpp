// Mixed-level engine unit tests: partition planning and refinement, the
// deterministic event queue, latched-cell extraction (validity, symmetry,
// memoization), MixedArray functional behaviour with exact event-counter
// contracts, the hier_* counter flow into spice::SolverStats, config
// validation shared with the flat driver, and the ArrayEngine mode policy.

#include <gtest/gtest.h>

#include <cmath>

#include "hier/engine.hpp"
#include "hier/event_queue.hpp"
#include "hier/latched_cell.hpp"
#include "hier/mixed_array.hpp"
#include "hier/partition.hpp"
#include "spice/solve_error.hpp"
#include "spice/stats.hpp"
#include "sram/designs.hpp"

namespace tfetsram::hier {
namespace {

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

std::vector<std::vector<bool>> zeros(std::size_t rows, std::size_t cols) {
    return std::vector<std::vector<bool>>(rows,
                                          std::vector<bool>(cols, false));
}

// ------------------------------------------------------------ Partitioner

TEST(Partitioner, WritePromotesRowPlusSentinels) {
    const Partitioner p(8, 4, {});
    const PartitionPlan plan = p.plan_write(3, 1);
    // 4 wordline-edge cells (the asserted row) + 2 excursion sentinels on
    // the written column.
    ASSERT_EQ(plan.count(), 6u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_TRUE(plan.contains(3, c));
        EXPECT_EQ(plan.promoted[c].reason, PromoteReason::kWordlineEdge);
    }
    // Sentinels walk outward from the accessed row, below first.
    EXPECT_EQ(plan.promoted[4].ref.row, 2u);
    EXPECT_EQ(plan.promoted[4].ref.col, 1u);
    EXPECT_EQ(plan.promoted[4].reason, PromoteReason::kBitlineExcursion);
    EXPECT_EQ(plan.promoted[5].ref.row, 4u);
    EXPECT_EQ(plan.promoted[5].reason, PromoteReason::kBitlineExcursion);
}

TEST(Partitioner, ReadPromotesRowOnly) {
    const Partitioner p(8, 4, {});
    const PartitionPlan plan = p.plan_read(0, 2);
    ASSERT_EQ(plan.count(), 4u);
    for (const PromotedCell& c : plan.promoted)
        EXPECT_EQ(c.reason, PromoteReason::kWordlineEdge);
}

TEST(Partitioner, SentinelsClampToAvailableRows) {
    // A 2-row array has only one quiescent row to promote.
    const Partitioner p(2, 2, {});
    EXPECT_EQ(p.plan_write(0, 0).count(), 2u + 1u);
    // A 1-row array has none.
    const Partitioner p1(1, 3, {});
    EXPECT_EQ(p1.plan_write(0, 1).count(), 3u);
}

TEST(Partitioner, RefineAddsGuardSentinelsUntilExhausted) {
    const Partitioner p(4, 2, {});
    PartitionPlan plan = p.plan_write(1, 0); // rows {1}, sentinels {0, 2}
    ASSERT_EQ(plan.count(), 4u);
    // One quiescent row (3) remains on column 0.
    EXPECT_EQ(p.refine(plan, 0), 1u);
    EXPECT_TRUE(plan.contains(3, 0));
    EXPECT_EQ(plan.promoted.back().reason, PromoteReason::kGuardBand);
    EXPECT_EQ(p.refine(plan, 0), 0u); // saturated
}

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, DrainsInTimeThenIssueOrder) {
    EventQueue q;
    q.push({2e-12, 0, EventKind::kDemote, 0, 0, {}});
    q.push({1e-12, 0, EventKind::kPromote, 1, 0, {}});
    q.push({1e-12, 0, EventKind::kRelinearize, 2, 0, {}});
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop().kind, EventKind::kPromote); // earliest time, first in
    EXPECT_EQ(q.pop().kind, EventKind::kRelinearize); // same time, later in
    EXPECT_EQ(q.pop().kind, EventKind::kDemote);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RendersReadably) {
    const Event ev{5e-10, 0, EventKind::kPromote, 3, 1,
                   PromoteReason::kWordlineEdge};
    const std::string s = to_string(ev);
    EXPECT_NE(s.find("promote"), std::string::npos);
    EXPECT_NE(s.find("r3c1"), std::string::npos);
    EXPECT_NE(s.find("wordline-edge"), std::string::npos);
}

// -------------------------------------------------------- LatchedCellModel

TEST(LatchedCellModel, ExtractsValidSymmetricLoads) {
    const sram::CellConfig cell = sram::proposed_design(0.8, models()).config;
    LatchedCellModel model(cell);
    const BitlineLoad& l0 = model.load(false, 0.0, 0.8, 0.8);
    const BitlineLoad& l1 = model.load(true, 0.0, 0.8, 0.8);
    ASSERT_TRUE(l0.valid);
    ASSERT_TRUE(l1.valid);
    // The quiescent cell holds its state at the extraction bias.
    EXPECT_GT(l1.v_q - l1.v_qb, 0.6);
    EXPECT_GT(l0.v_qb - l0.v_q, 0.6);
    // The 6T cell is mirror-symmetric, so state 0's BL leakage matches
    // state 1's BLB leakage at the symmetric bias.
    EXPECT_NEAR(l0.i_bl, l1.i_blb, 1e-12);
    EXPECT_NEAR(l0.i_blb, l1.i_bl, 1e-12);
    // Leakage of an off access device stays far below device on-current.
    EXPECT_LT(std::fabs(l0.i_bl), 1e-6);
    EXPECT_LT(std::fabs(l0.i_blb), 1e-6);
}

TEST(LatchedCellModel, MemoizesByQuantizedBias) {
    const sram::CellConfig cell = sram::proposed_design(0.8, models()).config;
    LatchedCellModel model(cell);
    (void)model.load(false, 0.0, 0.8, 0.8);
    const std::size_t cold = model.extractions();
    EXPECT_GE(cold, 0u);
    // Same point again (with sub-uV noise): served from the memo.
    (void)model.load(false, 0.0, 0.8 + 1e-9, 0.8);
    EXPECT_EQ(model.extractions(), cold);
    EXPECT_GE(model.cache_hits(), 1u);
}

// --------------------------------------------------------------- MixedArray

TEST(MixedArray, ValidatesConfigLikeFlatDriver) {
    array::ArrayConfig cfg = proposed_array(4, 2);
    cfg.rows = 0;
    try {
        const MixedArray arr(cfg);
        FAIL() << "0-row config must be rejected";
    } catch (const spice::SolveException& e) {
        EXPECT_EQ(e.error().code, spice::SolveErrorCode::kInvalidConfig);
    }
}

TEST(MixedArray, RejectsUnsupportedTopology) {
    array::ArrayConfig cfg = proposed_array(1, 1);
    cfg.cell.kind = sram::CellKind::kTfet7T;
    EXPECT_THROW(MixedArray{cfg}, contract_violation);
}

TEST(MixedArray, WriteCounterContract) {
    MixedArray arr(proposed_array(8, 4));
    ASSERT_TRUE(arr.initialize(zeros(8, 4)));
    const array::OpResult res = arr.write(3, 1, true);
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(arr.stored(3, 1));
    const HierStats& st = arr.stats();
    // 4 wordline-edge + 2 sentinels, no guard trips, one lumped load
    // relinearization per column.
    EXPECT_EQ(st.promotions, 6u);
    EXPECT_EQ(st.demotions, 6u);
    EXPECT_EQ(st.relinearizations, 4u);
    EXPECT_EQ(st.guard_retries, 0u);
    EXPECT_EQ(st.operations, 1u);
    EXPECT_EQ(st.last_active_cells, 6u);
    EXPECT_EQ(st.last_latched_cells, 8u * 4u - 6u);
    EXPECT_GT(st.last_active_unknowns, 0u);
    // Event trace is ordered and bracketed: relinearize/promote first,
    // demote last.
    const std::vector<Event>& trace = arr.event_trace();
    ASSERT_EQ(trace.size(), 4u + 6u + 6u);
    EXPECT_EQ(trace.front().kind, EventKind::kRelinearize);
    EXPECT_EQ(trace.back().kind, EventKind::kDemote);
}

TEST(MixedArray, ReadCounterContract) {
    MixedArray arr(proposed_array(8, 4));
    ASSERT_TRUE(arr.initialize(zeros(8, 4)));
    const array::ReadResult res = arr.read(5, 2);
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_FALSE(res.value);
    const HierStats& st = arr.stats();
    EXPECT_EQ(st.promotions, 4u); // asserted row only
    EXPECT_EQ(st.demotions, 4u);
    EXPECT_EQ(st.relinearizations, 4u);
    EXPECT_EQ(st.guard_retries, 0u);
}

TEST(MixedArray, CountersFlowIntoSolverStats) {
    MixedArray arr(proposed_array(8, 4));
    ASSERT_TRUE(arr.initialize(zeros(8, 4)));
    const spice::SolverStats before = spice::solver_stats();
    ASSERT_TRUE(arr.write(0, 0, true).ok);
    const spice::SolverStats delta = spice::solver_stats() - before;
    EXPECT_EQ(delta.hier_promotions, 6u);
    EXPECT_EQ(delta.hier_demotions, 6u);
    EXPECT_EQ(delta.hier_relinearizations, 4u);
    EXPECT_EQ(delta.hier_guard_retries, 0u);
    // The gauge carries through because the region did hier work.
    EXPECT_EQ(delta.hier_active_unknowns, arr.stats().last_active_unknowns);
    // A region with no hier work reports a zero gauge.
    const spice::SolverStats idle =
        spice::solver_stats() - spice::solver_stats();
    EXPECT_EQ(idle.hier_active_unknowns, 0u);
}

TEST(MixedArray, OperationsAreDeterministic) {
    // Two identical arrays driven identically produce identical traces,
    // counters, and latched voltages.
    MixedArray a(proposed_array(4, 2));
    MixedArray b(proposed_array(4, 2));
    ASSERT_TRUE(a.initialize(zeros(4, 2)));
    ASSERT_TRUE(b.initialize(zeros(4, 2)));
    ASSERT_TRUE(a.write(1, 1, true).ok);
    ASSERT_TRUE(b.write(1, 1, true).ok);
    ASSERT_EQ(a.event_trace().size(), b.event_trace().size());
    for (std::size_t i = 0; i < a.event_trace().size(); ++i) {
        EXPECT_EQ(a.event_trace()[i].kind, b.event_trace()[i].kind);
        EXPECT_EQ(a.event_trace()[i].time, b.event_trace()[i].time);
        EXPECT_EQ(a.event_trace()[i].row, b.event_trace()[i].row);
        EXPECT_EQ(a.event_trace()[i].col, b.event_trace()[i].col);
    }
    EXPECT_EQ(a.stats().promotions, b.stats().promotions);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_DOUBLE_EQ(a.latched(r, c).v_q, b.latched(r, c).v_q);
            EXPECT_DOUBLE_EQ(a.latched(r, c).v_qb, b.latched(r, c).v_qb);
        }
}

TEST(MixedArray, PartitionStaysSmallOnTallArrays) {
    // 128 rows x 2 cols = 256 cells; the active partition must stay at
    // the size of (row + sentinels) regardless of array height.
    MixedArray arr(proposed_array(128, 2));
    ASSERT_TRUE(arr.initialize(zeros(128, 2)));
    ASSERT_TRUE(arr.write(64, 0, true).ok);
    EXPECT_EQ(arr.stats().last_active_cells, 2u + 2u);
    EXPECT_EQ(arr.stats().last_latched_cells, 256u - 4u);
    // Far smaller than the flat circuit would be (~256 * 2 nodes + rails).
    EXPECT_LT(arr.stats().last_active_unknowns, 60u);
    // Unaccessed cells kept their latched state.
    EXPECT_TRUE(arr.stored(64, 0));
    EXPECT_FALSE(arr.stored(0, 0));
    EXPECT_FALSE(arr.stored(127, 1));
}

// --------------------------------------------------------------- ArrayEngine

TEST(ArrayEngine, AutoRoutesByRowCount) {
    ArrayEngine small(proposed_array(4, 2));
    EXPECT_FALSE(small.mixed());
    ArrayEngine tall(proposed_array(kAutoMixedRows, 2));
    EXPECT_TRUE(tall.mixed());
    ArrayEngine forced(proposed_array(4, 2), EngineMode::kMixed);
    EXPECT_TRUE(forced.mixed());
}

TEST(ArrayEngine, MixedEngineIsFunctionalThroughFacade) {
    ArrayEngine eng(proposed_array(4, 2), EngineMode::kMixed);
    ASSERT_TRUE(eng.initialize(zeros(4, 2)));
    ASSERT_TRUE(eng.write(2, 1, true).ok);
    const array::ReadResult rd = eng.read(2, 1);
    ASSERT_TRUE(rd.ok) << rd.message;
    EXPECT_TRUE(rd.value);
    ASSERT_NE(eng.hier_stats(), nullptr);
    EXPECT_EQ(eng.hier_stats()->operations, 2u);
    EXPECT_GT(eng.unknowns(), 0u);
    EXPECT_GT(eng.transistors(), 0u);
}

} // namespace
} // namespace tfetsram::hier
