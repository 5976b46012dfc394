// Operation-program oracle. The cell driver and the flat array driver
// program their sources from sram::OperationProgram; the waveforms they
// set must be bitwise the ones the hand-written programs in
// tests/support/operation_program_reference.cpp produced: the same
// breakpoints, and the same value at t = 0, at every breakpoint, at each
// midpoint between consecutive breakpoints and past the last one.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "array/array.hpp"
#include "spice/elements.hpp"
#include "sram/cell_spec.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "support/operation_program_reference.hpp"

namespace tfetsram::sram {
namespace {

using spice::Waveform;
using testing_support::ProgramMap;

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set({}, false);
    return set;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_waveform(const Waveform& got, const Waveform& want,
                          const std::string& what) {
    const std::vector<double>& bp = want.breakpoints();
    ASSERT_EQ(got.breakpoints().size(), bp.size()) << what;
    std::vector<double> samples{0.0};
    for (std::size_t i = 0; i < bp.size(); ++i) {
        EXPECT_TRUE(same_bits(got.breakpoints()[i], bp[i]))
            << what << " breakpoint " << i;
        if (i > 0)
            samples.push_back(bp[i - 1] + (bp[i] - bp[i - 1]) / 2.0);
        samples.push_back(bp[i]);
    }
    samples.push_back((bp.empty() ? 0.0 : bp.back()) + 1e-9);
    for (const double t : samples)
        EXPECT_TRUE(same_bits(got.at(t), want.at(t)))
            << what << " at t = " << t << ": " << got.at(t) << " vs "
            << want.at(t);
}

void expect_same_program(const ProgramMap& got, const ProgramMap& want,
                         const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (const auto& [key, wave] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end()) << what << ": no source " << key;
        expect_same_waveform(it->second, wave, what + " " + key);
    }
}

void expect_same_window(const OperationWindow& got,
                        const OperationWindow& want, const std::string& what) {
    EXPECT_TRUE(same_bits(got.wl_start, want.wl_start)) << what;
    EXPECT_TRUE(same_bits(got.wl_mid, want.wl_mid)) << what;
    EXPECT_TRUE(same_bits(got.wl_end, want.wl_end)) << what;
    EXPECT_TRUE(same_bits(got.t_end, want.t_end)) << what;
}

/// What the cell's sources carry now, keyed by rail role.
ProgramMap cell_sources(const SramCell& cell) {
    ProgramMap out;
    const auto add = [&](const char* role, const spice::Device* source) {
        if (source != nullptr)
            out.insert_or_assign(role, *source->stimulus());
    };
    add("vdd", cell.v_vdd);
    add("vss", cell.v_vss);
    add("wl", cell.v_wl);
    add("bl", cell.v_bl);
    add("blb", cell.v_blb);
    add("rwl", cell.v_rwl);
    add("rbl", cell.v_rbl);
    add("sw_bl", cell.sw_bl);
    add("sw_blb", cell.sw_blb);
    add("sw_rbl", cell.sw_rbl);
    return out;
}

/// Every stimulated source of a circuit, keyed by label.
ProgramMap circuit_sources(const spice::Circuit& ckt) {
    ProgramMap out;
    for (const auto& dev : ckt.devices())
        if (dev->stimulus() != nullptr)
            out.insert_or_assign(dev->label(), *dev->stimulus());
    return out;
}

struct CellCase {
    std::string name;
    const CellSpec* spec;
    AccessDevice access;
};

/// Every built-in spec; the 6T TFET cell with both wordline polarities.
std::vector<CellCase> cell_cases() {
    std::vector<CellCase> out;
    for (const CellSpec& spec : builtin_specs()) {
        out.push_back({spec.id, &spec, AccessDevice::kInwardP});
        if (spec.wl_follows_access)
            out.push_back({spec.id + "_outwardN", &spec,
                           AccessDevice::kOutwardN});
    }
    return out;
}

TEST(OperationProgramDiff, CellProgramsMatchReference) {
    OperationTiming slow;
    slow.t_settle = 80e-12;
    slow.assist_lead = 300e-12;
    slow.assist_lag = 20e-12;
    slow.assist_edge = 15e-12;
    slow.wl_edge = 7e-12;
    slow.t_post = 250e-12;
    const OperationTiming timings[] = {OperationTiming{}, slow};
    const double fractions[] = {0.3, 0.1};

    std::vector<Assist> write_assists{Assist::kNone};
    write_assists.insert(write_assists.end(), std::begin(kWriteAssists),
                         std::end(kWriteAssists));
    std::vector<Assist> read_assists{Assist::kNone};
    read_assists.insert(read_assists.end(), std::begin(kReadAssists),
                        std::end(kReadAssists));

    std::size_t programs = 0;
    for (const CellCase& cc : cell_cases()) {
        CellConfig cfg;
        cfg.access = cc.access;
        cfg.models = models();
        SramCell cell = instantiate_spec(*cc.spec, cfg);

        program_hold(cell);
        expect_same_program(cell_sources(cell),
                            testing_support::reference_hold(cell),
                            cc.name + " hold");
        ++programs;

        for (const OperationTiming& timing : timings) {
            for (const double fraction : fractions) {
                for (const bool value : {true, false}) {
                    if (cc.spec->single_sided_write &&
                        value != cc.spec->preferred_write)
                        continue;
                    for (const Assist a : write_assists) {
                        const std::string what =
                            cc.name + " write " + (value ? "1 " : "0 ") +
                            to_string(a) + " @" + std::to_string(fraction);
                        OperationWindow want;
                        const ProgramMap ref = testing_support::reference_write(
                            cell, value, 300e-12, a, fraction, timing, &want);
                        const OperationWindow got = program_write(
                            cell, value, 300e-12, a, fraction, timing);
                        expect_same_program(cell_sources(cell), ref, what);
                        expect_same_window(got, want, what);
                        ++programs;
                    }
                }
                for (const bool floating : {false, true}) {
                    for (const Assist a : read_assists) {
                        const std::string what =
                            cc.name + " read " +
                            (floating ? "floating " : "clamped ") +
                            to_string(a) + " @" + std::to_string(fraction);
                        ReadSetup want;
                        const ProgramMap ref = testing_support::reference_read(
                            cell, 250e-12, a, fraction, timing, floating,
                            &want);
                        const ReadSetup got = program_read(
                            cell, 250e-12, a, fraction, timing, floating);
                        expect_same_program(cell_sources(cell), ref, what);
                        expect_same_window(got.window, want.window, what);
                        EXPECT_EQ(got.sense_node, want.sense_node) << what;
                        EXPECT_TRUE(same_bits(got.precharge_level,
                                              want.precharge_level))
                            << what;
                        EXPECT_EQ(got.disturb_node, want.disturb_node) << what;
                        EXPECT_EQ(got.safe_node, want.safe_node) << what;
                        EXPECT_EQ(got.q_high_init, want.q_high_init) << what;
                        ++programs;
                    }
                }
            }
        }
    }
    // 7 cells x (hold + 2 timings x 2 fractions x 10 reads) plus the writes
    // each spec allows: guards against a loop that silently runs nothing.
    EXPECT_GT(programs, 7u * (1u + 40u));
}

TEST(OperationProgramDiff, ArraySourcesMatchReference) {
    struct ArrayCell {
        const char* name;
        CellConfig cell;
    };
    CellConfig tfet_n = proposed_design(0.8, models()).config;
    tfet_n.access = AccessDevice::kInwardN;
    const ArrayCell cells[] = {
        {"cmos6t", cmos_design(0.8, models()).config},
        {"tfet6t_inwardP", proposed_design(0.8, models()).config},
        {"tfet6t_inwardN", tfet_n},
    };
    std::vector<Assist> write_assists{Assist::kNone};
    write_assists.insert(write_assists.end(), std::begin(kWriteAssists),
                         std::end(kWriteAssists));
    std::vector<Assist> read_assists{Assist::kNone};
    read_assists.insert(read_assists.end(), std::begin(kReadAssists),
                        std::end(kReadAssists));

    for (const ArrayCell& ac : cells) {
        for (const Assist wa : write_assists) {
            for (const Assist ra : read_assists) {
                array::ArrayConfig cfg;
                cfg.rows = 2;
                cfg.cols = 2;
                cfg.cell = ac.cell;
                cfg.write_assist = wa;
                cfg.read_assist = ra;
                const std::string what = std::string(ac.name) + " WA " +
                                         to_string(wa) + ", RA " +
                                         to_string(ra);
                array::SramArray arr(cfg);
                ASSERT_TRUE(arr.initialize({{false, true}, {true, false}}))
                    << what;
                (void)arr.write(0, 1, false);
                expect_same_program(
                    circuit_sources(arr.circuit()),
                    testing_support::reference_array_write(cfg, 0, 1, false),
                    what + " write");
                (void)arr.read(1, 0);
                expect_same_program(
                    circuit_sources(arr.circuit()),
                    testing_support::reference_array_read(cfg, 1, 0),
                    what + " read");
            }
        }
    }
}

} // namespace
} // namespace tfetsram::sram
