// Transient tapes (spice/transient.hpp, docs/SOLVER.md): a run resumed from
// a recorded prefix is bitwise the run integrated in full.
//
// The cell cases replay every attempt of a WLcrit bisection both ways and
// compare times, states and outcomes with memcmp; each WLcrit must equal
// the bisection run through independent attempt_write calls. The synthetic
// cases pin the rule that picks the restart step: the running maximum of
// first proposals (not accepted times), ramps shared only when identical,
// and nothing replayed when the runs differ at t = 0.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "device/models.hpp"
#include "spice/solution.hpp"
#include "spice/context.hpp"
#include "spice/stats.hpp"
#include "spice/transient.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "sram/operations.hpp"
#include "support/wlcrit_reference.hpp"

namespace tfetsram {
namespace {

using sram::Assist;

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every sample, flag and message of two runs are equal bit for bit.
void expect_identical(const spice::TransientResult& a,
                      const spice::TransientResult& b,
                      const std::string& what) {
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.stopped_early, b.stopped_early) << what;
    EXPECT_TRUE(same_bits(a.time_reached, b.time_reached)) << what;
    EXPECT_EQ(a.message, b.message) << what;
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(same_bits(a.times()[i], b.times()[i]))
            << what << " sample " << i;
        const la::Vector& xa = a.state(i);
        const la::Vector& xb = b.state(i);
        ASSERT_EQ(xa.size(), xb.size()) << what;
        ASSERT_EQ(std::memcmp(xa.data(), xb.data(), xa.size() * sizeof(double)),
                  0)
            << what << " sample " << i;
    }
}

/// The write transients of one cell, set up as attempt_write sets them up:
/// the same hold state, stop predicate and window for every pulse width.
class WriteRuns {
public:
    WriteRuns(sram::SramCell& cell, Assist assist,
              const sram::MetricOptions& opts = {})
        : cell_(cell), assist_(assist), opts_(opts),
          value_(sram::preferred_write_value(cell)) {
        program(opts_.wlcrit_max);
        hold_ = sram::solve_hold_state(cell_, !value_, opts_.solver);
    }

    [[nodiscard]] bool hold_ok() const {
        return hold_.converged && hold_.state_ok;
    }
    [[nodiscard]] const la::Vector& hold() const { return hold_.x; }

    /// Program a write of `pulse` (timing `timing`) without running it.
    sram::OperationWindow program(double pulse,
                                  const sram::OperationTiming& timing) {
        return sram::program_write(cell_, value_, pulse, assist_,
                                   opts_.assist_fraction, timing);
    }
    sram::OperationWindow program(double pulse) {
        return program(pulse, opts_.timing);
    }

    /// Run the programmed write (window `w`) from `guess`.
    spice::TransientResult run(const sram::OperationWindow& w,
                               spice::TransientTape* tape,
                               const la::Vector* guess = nullptr) {
        const double vdd = cell_.config.vdd;
        const spice::NodeId q = cell_.q;
        const spice::NodeId qb = cell_.qb;
        const double settle_after = w.wl_end + 50e-12;
        const auto stop = [&](double t, const la::Vector& x) {
            return t >= settle_after &&
                   std::fabs(spice::branch_voltage(x, q, qb)) > 0.85 * vdd;
        };
        return spice::solve_transient(
            cell_.circuit, spice::ambient_context(), opts_.solver, w.t_end,
            stop, guess != nullptr ? guess : &hold_.x, tape);
    }
    spice::TransientResult run(double pulse, spice::TransientTape* tape) {
        return run(program(pulse), tape);
    }

    /// Sign-adjusted final q/qb separation and the flip decision.
    [[nodiscard]] double separation(const spice::TransientResult& tr) const {
        const double sep =
            tr.final_voltage(cell_.q) - tr.final_voltage(cell_.qb);
        return value_ ? sep : -sep;
    }
    [[nodiscard]] bool flipped(const spice::TransientResult& tr) const {
        return separation(tr) > opts_.flip_threshold_frac * cell_.config.vdd;
    }

    [[nodiscard]] const sram::MetricOptions& opts() const { return opts_; }

private:
    sram::SramCell& cell_;
    Assist assist_;
    sram::MetricOptions opts_;
    bool value_;
    sram::HoldState hold_;
};

std::uint64_t replayed_since(const spice::SolverStats& before) {
    return (spice::solver_stats() - before).transient_steps_replayed;
}

// ------------------------------------------------------------ cell cases

struct Case {
    std::string name;
    sram::CellConfig config;
    Assist assist;
};

// Without this gtest prints the parameter as raw object bytes, heap
// pointers included, so the listed test names would change on every run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> cases() {
    const sram::CellConfig proposed =
        sram::proposed_design(0.8, models()).config;
    sram::CellConfig beta2 = proposed;
    beta2.beta = 2.0;
    std::vector<Case> out{{"tfet6t_beta2_none", beta2, Assist::kNone}};
    const char* const assist_names[] = {"vdd_lowering", "gnd_raising",
                                        "wl_lowering", "bl_raising"};
    for (std::size_t i = 0; i < std::size(sram::kWriteAssists); ++i)
        out.push_back({std::string("tfet6t_beta2_") + assist_names[i], beta2,
                       sram::kWriteAssists[i]});
    out.push_back({"tfet6t_beta06_none", proposed, Assist::kNone});
    out.push_back({"asym6t_beta1_none",
                   sram::asym6t_design(0.8, models()).config, Assist::kNone});
    out.push_back({"tfet7t_beta08_none",
                   sram::tfet7t_design(0.8, models()).config, Assist::kNone});
    return out;
}

class TransientResume : public ::testing::TestWithParam<Case> {};

TEST_P(TransientResume, BisectionAttemptsMatchFullRuns) {
    const Case& c = GetParam();
    sram::SramCell cell = sram::build_cell(c.config);
    WriteRuns runs(cell, c.assist);
    ASSERT_TRUE(runs.hold_ok());
    const sram::MetricOptions& opts = runs.opts();

    // Walk the bisection critical_wordline_pulse walks. Each attempt runs
    // in full and from the tape the first (longest) attempt recorded.
    spice::TransientTape tape;
    std::size_t attempts = 0;
    std::uint64_t replayed = 0;
    bool failed = false;
    const auto attempt = [&](double pulse) {
        ++attempts;
        const spice::TransientResult full = runs.run(pulse, nullptr);
        const spice::SolverStats before = spice::solver_stats();
        const spice::TransientResult taped = runs.run(pulse, &tape);
        replayed += replayed_since(before);
        const std::string what = c.name + " pulse " + std::to_string(pulse);
        expect_identical(taped, full, what);
        if (full.completed && taped.completed) {
            EXPECT_TRUE(same_bits(runs.separation(taped),
                                  runs.separation(full)))
                << what;
        }
        failed = failed || !full.completed;
        return full.completed && runs.flipped(full);
    };

    double wlcrit = std::numeric_limits<double>::quiet_NaN();
    if (attempt(opts.wlcrit_max) && !failed) {
        ASSERT_FALSE(tape.empty());
        if (attempt(opts.wlcrit_min)) {
            wlcrit = opts.wlcrit_min;
        } else {
            double lo = opts.wlcrit_min;
            double hi = opts.wlcrit_max;
            while (!failed && (hi - lo) / hi > opts.wlcrit_rel_tol) {
                const double mid = 0.5 * (lo + hi);
                (attempt(mid) ? hi : lo) = mid;
            }
            wlcrit = hi;
        }
        // Every later attempt shares at least the steps before its
        // wordline rises.
        EXPECT_GT(replayed, attempts);
    } else if (!failed) {
        wlcrit = sram::kInfinitePulse;
    }
    ASSERT_FALSE(failed) << c.name;
    EXPECT_GE(attempts, 1u);

    // The library bisection (hold state and tape shared across attempts)
    // and the bisection by independent attempts agree bit for bit.
    sram::SramCell cell_a = sram::build_cell(c.config);
    const double resumed = sram::critical_wordline_pulse(cell_a, c.assist);
    sram::SramCell cell_b = sram::build_cell(c.config);
    const double plain =
        testing_support::wlcrit_by_plain_attempts(cell_b, c.assist, opts);
    EXPECT_TRUE(same_bits(resumed, plain)) << resumed << " vs " << plain;
    EXPECT_TRUE(same_bits(resumed, wlcrit)) << resumed << " vs " << wlcrit;
}

std::string case_name(const ::testing::TestParamInfo<Case>& p) {
    return p.param.name;
}

INSTANTIATE_TEST_SUITE_P(Cells, TransientResume, ::testing::ValuesIn(cases()),
                         case_name);

// ------------------------------------------------------- synthetic cases

/// A cell whose 6 ns write is recorded on `tape`.
struct Recorded {
    sram::SramCell cell =
        [] {
            sram::CellConfig cfg = sram::proposed_design(0.8, models()).config;
            cfg.beta = 2.0;
            return sram::build_cell(cfg);
        }();
    WriteRuns runs{cell, Assist::kNone};
    spice::TransientTape tape;

    Recorded() {
        TFET_ASSERT(runs.hold_ok());
        const spice::TransientResult rec =
            runs.run(runs.opts().wlcrit_max, &tape);
        TFET_ASSERT(rec.completed && !tape.empty());
    }
};

TEST(TransientResumeRule, DivergenceInsideARejectedStepRestartsBeforeIt) {
    Recorded r;
    const std::vector<double>& t = r.tape.trajectory().times();
    // A step j whose first proposal overshot its accepted time (an LTE
    // rejection or a Newton shrink), with room for b between the accepted
    // time and the proposal.
    std::size_t j = 0;
    double b = 0.0;
    for (std::size_t k = 1; k < r.tape.size(); ++k) {
        const double lo = std::max(t[k], r.tape.proposal_end(k - 1));
        const double hi = r.tape.proposal_end(k);
        if (hi - lo > 1e-3 * (hi - t[k - 1])) {
            j = k;
            b = 0.5 * (lo + hi);
            break;
        }
    }
    ASSERT_GT(j, 0u) << "the recording has no rejected step";

    // The new program differs only by a breakpoint at b on a flat supply:
    // same values everywhere, but the stepper lands on b.
    const sram::OperationWindow w = r.runs.program(r.runs.opts().wlcrit_max);
    const double vdd = r.cell.config.vdd;
    r.cell.v_vdd->set_waveform(
        spice::Waveform::pwl({{b, vdd}, {b + 1e-12, vdd}}));
    const spice::TransientResult full = r.runs.run(w, nullptr);
    // Restarting from step j (its accepted time is before b) would keep a
    // step the new run does not take.
    ASSERT_GT(full.size(), j);
    EXPECT_FALSE(same_bits(full.times()[j], t[j]));

    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = r.runs.run(w, &r.tape);
    EXPECT_EQ(replayed_since(before), j - 1);
    expect_identical(resumed, full, "rejected-step divergence");
}

TEST(TransientResumeRule, NonFlatDivergenceSharesNothingOfTheRamp) {
    Recorded r;
    // A slower wordline edge: both programs start the same ramp at
    // wl_start, but with different slopes, so b is the ramp's start and
    // not the end of the shorter ramp.
    sram::OperationTiming slow = r.runs.opts().timing;
    slow.wl_edge = 6e-12;
    const sram::OperationWindow w =
        r.runs.program(r.runs.opts().wlcrit_max, slow);
    const double b = w.wl_start;
    std::uint64_t expected = 0;
    while (expected + 1 < r.tape.size() &&
           r.tape.proposal_end(expected + 1) < b - 1e-21)
        ++expected;
    ASSERT_GT(expected, 0u);
    EXPECT_LT(r.tape.trajectory().times()[expected], b);

    const spice::TransientResult full = r.runs.run(w, nullptr);
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = r.runs.run(w, &r.tape);
    EXPECT_EQ(replayed_since(before), expected);
    expect_identical(resumed, full, "non-flat divergence");

    // The same rule on the waveforms alone.
    const spice::Waveform fast =
        spice::Waveform::pwl({{1e-9, 0.0}, {1.1e-9, 1.0}, {2e-9, 1.0}});
    const spice::Waveform slower =
        spice::Waveform::pwl({{1e-9, 0.0}, {1.2e-9, 1.0}, {2e-9, 1.0}});
    EXPECT_EQ(fast.shared_until(slower), 1e-9);
    const spice::Waveform longer =
        spice::Waveform::pwl({{1e-9, 0.0}, {1.1e-9, 1.0}, {3e-9, 1.0}});
    EXPECT_EQ(fast.shared_until(longer), 2e-9); // flat in both until 2 ns
    EXPECT_EQ(fast.shared_until(fast),
              std::numeric_limits<double>::infinity());
}

TEST(TransientResumeRule, DivergenceAtTimeZeroReplaysNothing) {
    Recorded r;
    const sram::OperationWindow w = r.runs.program(r.runs.opts().wlcrit_max);
    r.cell.v_vdd->set_waveform(spice::Waveform::dc(0.79));
    const spice::TransientResult full = r.runs.run(w, nullptr);
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = r.runs.run(w, &r.tape);
    const spice::SolverStats d = spice::solver_stats() - before;
    EXPECT_EQ(d.transient_steps_replayed, 0u);
    EXPECT_EQ(d.dc_solves, 1u); // the t = 0 operating point is solved
    expect_identical(resumed, full, "t = 0 divergence");
}

TEST(TransientResumeRule, IdenticalRunReplaysToItsEarlyStop) {
    Recorded r;
    const sram::OperationWindow w = r.runs.program(r.runs.opts().wlcrit_max);
    const spice::TransientResult full = r.runs.run(w, nullptr);
    ASSERT_TRUE(full.stopped_early);
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = r.runs.run(w, &r.tape);
    const spice::SolverStats d = spice::solver_stats() - before;
    // The replayed stop predicate fires on the recorded step where the
    // full run's fires: nothing is integrated or solved.
    EXPECT_EQ(d.transient_steps_replayed, full.size() - 1);
    EXPECT_EQ(d.transient_steps, 0u);
    EXPECT_EQ(d.nr_iterations, 0u);
    EXPECT_EQ(d.dc_solves, 0u);
    expect_identical(resumed, full, "identical run");
}

TEST(TransientResumeRule, DifferentStartingGuessReplaysNothing) {
    Recorded r;
    const sram::OperationWindow w = r.runs.program(1e-9);
    la::Vector guess = r.runs.hold();
    guess[0] += 1e-9;
    const spice::SolverStats before = spice::solver_stats();
    const spice::TransientResult resumed = r.runs.run(w, &r.tape, &guess);
    const spice::TransientResult full = r.runs.run(w, nullptr, &guess);
    EXPECT_EQ(replayed_since(before), 0u);
    expect_identical(resumed, full, "different dc_guess");
}

// ------------------------------------------------ forced-sparse backend

TEST(TransientResumeSparse, WlcritMatchesFullRunBisection) {
    // The sparse kernel reuses the previous factorization's pivot
    // sequence, so a resumed step factors with a different pivot history
    // than the full run's step did: equal up to that rounding.
    spice::SimConfig sim;
    sim.mode = spice::SolverMode::kSparse;
    const spice::SimContext sparse(sim);
    const sram::CellConfig cfg = sram::proposed_design(0.8, models()).config;
    sram::SramCell cell_a = sram::build_cell(cfg, &sparse);
    const double resumed = sram::critical_wordline_pulse(cell_a);
    sram::SramCell cell_b = sram::build_cell(cfg, &sparse);
    const double plain = testing_support::wlcrit_by_plain_attempts(
        cell_b, Assist::kNone, sram::MetricOptions{});
    ASSERT_TRUE(std::isfinite(plain));
    EXPECT_LE(std::fabs(resumed - plain), 1e-9 * std::fabs(plain))
        << resumed << " vs " << plain;
    EXPECT_GT(sparse.stats().sparse_refactorizations, 0u);
    EXPECT_GT(sparse.stats().transient_steps_replayed, 0u);
}

} // namespace
} // namespace tfetsram
