#pragma once
// Mixed-level SRAM array driver. Functionally a drop-in for
// array::SramArray (same config, same operation results), but instead of
// solving the whole R x C grid at device level it solves only the *active
// partition* of each operation — the accessed row plus excursion
// sentinels (hier/partition.hpp) — and folds every quiescent cell into a
// per-column lumped Norton load extracted by hier/latched_cell.hpp.
//
// One operation proceeds event-style:
//  1. The Partitioner turns (op, row, col) into a PartitionPlan.
//  2. A small SPICE circuit is built for the plan: full bitline/wordline
//     rail infrastructure for every column, device-level cells for the
//     promoted set, and one LinearizedLoad per bitline carrying the
//     latched population's leakage (kRelinearize events).
//  3. The partition's DC hold state is solved, with promoted cells seeded
//     from their latched storage-node voltages (kPromote events at the
//     wordline edge that made them active).
//  4. The flat driver's exact waveform program runs as a transient, with
//     a guard monitor watching each lumped bitline against the envelope
//     spanned by its quiescent and extraction levels. A rail escaping the
//     band trips a kGuardTrip event: the plan is refined (more sentinels
//     on the offending column) and the operation re-runs, bounded by
//     PartitionPolicy::max_guard_retries.
//  5. After the post-access settle, promoted cells re-latch (kDemote
//     events): their solved storage-node voltages update the latched
//     store, and the partition is discarded.
//
// The event trace and the promotion/demotion/relinearization counters are
// exact and deterministic for a given operation sequence; the counters
// also flow into the ambient spice::SolverStats (hier_* fields) so the
// runner's telemetry journal reports them per task. Differential tests
// (tests/test_hier_diff.cpp) pin mixed-vs-flat agreement on small arrays.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "array/array.hpp"
#include "hier/event_queue.hpp"
#include "hier/latched_cell.hpp"
#include "hier/partition.hpp"
#include "spice/solver_info.hpp"

namespace tfetsram::hier {

/// Mixed-engine tunables on top of the shared ArrayConfig.
struct HierConfig {
    PartitionPolicy partition;
    /// Finite-difference step of the load extraction [V].
    double extraction_dv = 10e-3;
};

/// Cumulative engine statistics (exact, deterministic).
struct HierStats {
    std::uint64_t operations = 0;      ///< write/read calls completed
    std::uint64_t promotions = 0;      ///< kPromote events
    std::uint64_t demotions = 0;       ///< kDemote events
    std::uint64_t relinearizations = 0; ///< kRelinearize events
    std::uint64_t guard_retries = 0;   ///< kGuardTrip events
    std::size_t last_active_cells = 0;   ///< promoted cells, last attempt
    std::size_t last_latched_cells = 0;  ///< latched cells, last attempt
    std::size_t last_active_unknowns = 0; ///< partition MNA size
    std::size_t max_active_unknowns = 0;
};

class MixedArray {
public:
    /// Validates `config` exactly like the flat driver (including
    /// kInvalidConfig on degenerate shapes); `sim` pins all solves and
    /// counter attribution to an explicit context.
    explicit MixedArray(const array::ArrayConfig& config,
                        HierConfig hier = {},
                        const spice::SimContext* sim = nullptr);

    [[nodiscard]] std::size_t rows() const { return config_.rows; }
    [[nodiscard]] std::size_t cols() const { return config_.cols; }
    [[nodiscard]] const array::ArrayConfig& config() const { return config_; }
    [[nodiscard]] const HierConfig& hier_config() const { return hier_; }

    /// Establish the latched hold state (data[r][c]); extraction-backed,
    /// no array-sized solve happens. Must be called before operations.
    [[nodiscard]] bool initialize(
        const std::vector<std::vector<bool>>& data);

    /// Same contracts as array::SramArray.
    array::OpResult write(std::size_t row, std::size_t col, bool value);
    array::ReadResult read(std::size_t row, std::size_t col);
    [[nodiscard]] bool stored(std::size_t row, std::size_t col) const;
    [[nodiscard]] double separation(std::size_t row, std::size_t col) const;

    /// Latched view of one cell (exact solved voltages for cells that
    /// were promoted at least once; extraction voltages otherwise).
    [[nodiscard]] const LatchedState& latched(std::size_t row,
                                              std::size_t col) const;

    [[nodiscard]] const HierStats& stats() const { return stats_; }
    /// Event trace of the most recent operation (all attempts).
    [[nodiscard]] const std::vector<Event>& event_trace() const {
        return trace_;
    }
    /// Linear-kernel routing of the most recent active partition;
    /// zero-unknowns default before the first operation.
    [[nodiscard]] spice::SolverInfo partition_solver_info();
    /// Device/unknown counts of the most recent active partition (0
    /// before the first operation).
    [[nodiscard]] std::size_t partition_transistors() const;
    [[nodiscard]] std::size_t partition_unknowns() const;

private:
    struct ColHandles : array::ColumnRails {
        spice::LinearizedLoad* load_bl = nullptr;
        spice::LinearizedLoad* load_blb = nullptr;
        std::size_t latched_cells = 0;
        double v0_bl = 0.0; ///< extraction bias of the lumped BL load
        double v0_blb = 0.0;
    };
    struct ActiveCell {
        CellRef ref;
        spice::NodeId q = 0;
        spice::NodeId qb = 0;
    };
    struct Partition {
        spice::Circuit ckt;
        spice::NodeId vdd_node = 0;
        std::vector<ColHandles> cols;
        std::vector<ActiveCell> cells;
        /// Wordline source per promoted row, nullptr elsewhere.
        std::vector<spice::VoltageSource*> wl;
        la::Vector state;
    };
    /// Per-column extraction bias for one operation.
    struct ColumnBias {
        double vss = 0.0;
        double v_bl = 0.0;
        double v_blb = 0.0;
    };
    struct AttemptOutcome {
        bool completed = false;     ///< transient reached t_end
        bool guard_tripped = false; ///< monitor fired first
        std::size_t guard_col = 0;
        double guard_time = 0.0;
        std::string message;
    };

    struct ExecOutcome {
        bool completed = false;
        double t_end = 0.0;
        std::string message;
    };

    [[nodiscard]] const LatchedState& at(std::size_t row,
                                         std::size_t col) const;
    [[nodiscard]] std::unique_ptr<Partition>
    build_partition(const PartitionPlan& plan);
    /// The active levels of the programs' rails on the target column or
    /// an unselected one. `value` matters only for writes (the target
    /// column's bitline levels depend on the written polarity).
    [[nodiscard]] ColumnBias column_bias(const array::AccessPrograms& ops,
                                         bool target, bool is_write,
                                         bool value) const;
    /// Stamp the lumped loads of every column; false (with message) when
    /// an extraction failed to converge.
    bool program_loads(Partition& part, const PartitionPlan& plan,
                       const array::AccessPrograms& ops, bool value,
                       std::string* message);
    /// Fan `ops` out over the partition, as the flat driver does over the
    /// whole array.
    void program(Partition& part, const PartitionPlan& plan,
                 const array::AccessPrograms& ops) const;
    [[nodiscard]] bool solve_partition_dc(Partition& part,
                                          std::string* message);
    AttemptOutcome run_attempt(Partition& part, double t_end,
                               const std::vector<bool>& monitor_col);
    /// Guard-retry loop shared by write() and read(): builds, solves, and
    /// (on guard trips) refines + re-runs, leaving last_partition_ settled
    /// and the latched store updated on success.
    ExecOutcome execute(PartitionPlan& plan, bool value);
    /// Drain this attempt's queued events into the trace and counters.
    void drain_events();
    /// Copy the settled partition voltages back into the latched store.
    void relatch(const Partition& part);

    array::ArrayConfig config_;
    HierConfig hier_;
    const spice::SimContext* sim_ = nullptr;
    Partitioner partitioner_;
    LatchedCellModel model_;
    std::vector<LatchedState> store_; // row-major
    bool initialized_ = false;
    EventQueue queue_;
    std::vector<Event> trace_;
    HierStats stats_;
    std::unique_ptr<Partition> last_partition_;
};

} // namespace tfetsram::hier
