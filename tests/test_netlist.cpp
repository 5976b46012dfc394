// Netlist front-end tests: number parsing, tokenization/continuation,
// element and directive coverage, error attribution, and end-to-end
// simulation of parsed decks (RC step, TFET inverter, the paper's cell).

#include <gtest/gtest.h>

#include <cmath>

#include "netlist/netlist.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::netlist {
namespace {

TEST(SpiceNumber, PlainAndSuffixed) {
    EXPECT_DOUBLE_EQ(parse_spice_number("42"), 42.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("-1.5"), -1.5);
    EXPECT_DOUBLE_EQ(parse_spice_number("2.5k"), 2500.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("3meg"), 3e6);
    EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
    EXPECT_DOUBLE_EQ(parse_spice_number("10f"), 1e-14);
    EXPECT_DOUBLE_EQ(parse_spice_number("7p"), 7e-12);
    EXPECT_DOUBLE_EQ(parse_spice_number("3n"), 3e-9);
    EXPECT_DOUBLE_EQ(parse_spice_number("5u"), 5e-6);
    EXPECT_DOUBLE_EQ(parse_spice_number("2m"), 2e-3);
    EXPECT_DOUBLE_EQ(parse_spice_number("1e-9"), 1e-9);
}

TEST(SpiceNumber, UnitTailsIgnored) {
    // Classic SPICE: "2ns" == 2n, "10pF" == 10p.
    EXPECT_DOUBLE_EQ(parse_spice_number("2ns"), 2e-9);
    EXPECT_DOUBLE_EQ(parse_spice_number("10pF"), 1e-11);
}

TEST(SpiceNumber, Malformed) {
    EXPECT_THROW(parse_spice_number("abc"), ParseError);
    EXPECT_THROW(parse_spice_number(""), ParseError);
    EXPECT_THROW(parse_spice_number("1x"), ParseError);
}

TEST(Parse, TitleCommentsContinuation) {
    const Netlist nl = Netlist::parse("my title line\n"
                                      "* a comment\n"
                                      "R1 a 0\n"
                                      "+ 1k\n"
                                      "Vx a 0 DC 1 ; trailing comment\n"
                                      ".op\n"
                                      ".end\n");
    EXPECT_EQ(nl.title(), "my title line");
    EXPECT_EQ(nl.element_count(), 2u);
    ASSERT_EQ(nl.analyses().size(), 1u);
    EXPECT_EQ(nl.analyses()[0].kind, Analysis::Kind::kOperatingPoint);
}

TEST(Parse, ErrorsCarryLineNumbers) {
    try {
        Netlist::parse("t\nR1 a 0 1k\nXbogus a b c\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3u);
    }
}

TEST(Parse, RejectsUnknownDirective) {
    EXPECT_THROW(Netlist::parse("t\n.frobnicate\n"), ParseError);
}

TEST(Parse, RejectsMalformedPwl) {
    EXPECT_THROW(Netlist::parse("t\nV1 a 0 PWL(1 2 3)\n"), ParseError);
}

TEST(Parse, PrintDirective) {
    const Netlist nl =
        Netlist::parse("t\nR1 out 0 1k\nV1 out 0 DC 1\n.print v(out)\n");
    ASSERT_EQ(nl.print_nodes().size(), 1u);
    EXPECT_EQ(nl.print_nodes()[0], "out");
}

TEST(Build, RcDividerSolves) {
    const Netlist nl = Netlist::parse("divider\n"
                                      "V1 top 0 DC 1\n"
                                      "R1 top mid 1k\n"
                                      "R2 mid 0 3k\n");
    spice::Circuit ckt = nl.build();
    const spice::DcResult r =
        spice::solve_dc(ckt, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(spice::node_voltage(r.x, ckt.node("mid")), 0.75, 1e-6);
}

TEST(Build, RcTransientMatchesAnalytic) {
    const Netlist nl = Netlist::parse("rc step\n"
                                      "V1 in 0 PWL(1n 0 1.001n 1)\n"
                                      "R1 in out 1k\n"
                                      "C1 out 0 1p\n");
    spice::Circuit ckt = nl.build();
    const spice::TransientResult tr =
        spice::solve_transient(ckt, spice::ambient_context(), {}, 4e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    const double expected = 1.0 - std::exp(-(3e-9 - 1e-9) / 1e-9);
    EXPECT_NEAR(tr.voltage_at(ckt.node("out"), 3e-9), expected, 0.02);
}

TEST(Build, SwitchElement) {
    const Netlist nl =
        Netlist::parse("sw\nV1 a 0 DC 1\nS1 a b 10 1e12 DC 1\nR1 b 0 10\n");
    spice::Circuit ckt = nl.build();
    const spice::DcResult r =
        spice::solve_dc(ckt, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(spice::node_voltage(r.x, ckt.node("b")), 0.5, 1e-6);
}

TEST(Build, UndefinedModelRejected) {
    const Netlist nl = Netlist::parse(
        "bad\nM1 d g 0 nomodel W=1\nV1 d 0 DC 1\nVg g 0 DC 1\n");
    EXPECT_THROW(nl.build(), std::runtime_error);
}

TEST(Build, TfetInverterFromDeck) {
    const Netlist nl = Netlist::parse(
        "tfet inverter\n"
        ".model tn NTFET ()\n"
        ".model tp PTFET ()\n"
        "Vdd vdd 0 DC 0.8\n"
        "Vin in 0 DC 0\n"
        "MP out in vdd tp W=1\n"
        "MN out in 0 tn W=1\n");
    spice::Circuit ckt = nl.build();
    const spice::DcResult r =
        spice::solve_dc(ckt, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_GT(spice::node_voltage(r.x, ckt.node("out")), 0.75);
}

TEST(Build, ModelParametersApplied) {
    const Netlist nl = Netlist::parse(
        "param check\n"
        ".model hot NTFET (ion=1e-5 table=0)\n"
        "V1 d 0 DC 1\n"
        "Vg g 0 DC 1\n"
        "M1 d g 0 hot W=1\n");
    spice::Circuit ckt = nl.build();
    const spice::DcResult r =
        spice::solve_dc(ckt, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    // Ion recalibrated to 1e-5: the drain current at full bias must track.
    const auto* m = ckt.transistors().front();
    EXPECT_NEAR(m->drain_current(r.x), 1e-5, 2e-6);
}

TEST(Build, PaperCellDeckWritesOne) {
    // End-to-end: the shipped SRAM-cell deck must flip q from 0 to 1.
    const char* deck = R"(paper cell write
.model tn NTFET ()
.model tp PTFET ()
Vdd vdd 0 DC 0.8
Vwl wl 0 PWL(0 0.8 0.6n 0.8 0.605n 0 0.905n 0 0.91n 0.8)
Vbl  bl  0 DC 0.8
Vblb blb 0 PWL(0 0.8 0.1n 0.8 0.11n 0 1.0n 0 1.01n 0.8)
MPDL q  qb 0   tn W=0.6
MPUL q  qb vdd tp W=0.5
MPDR qb q  0   tn W=0.6
MPUR qb q  vdd tp W=0.5
MAXL q  wl bl  tp W=1
MAXR qb wl blb tp W=1
Cq  q  0 0.25f
Cqb qb 0 0.25f
.tran 1.4n
)";
    const Netlist nl = Netlist::parse(deck);
    spice::Circuit ckt = nl.build();
    // Seed the hold state q = 0.
    ckt.prepare();
    la::Vector guess(ckt.num_unknowns(), 0.0);
    guess[ckt.node("vdd") - 1] = 0.8;
    guess[ckt.node("qb") - 1] = 0.8;
    guess[ckt.node("bl") - 1] = 0.8;
    guess[ckt.node("blb") - 1] = 0.8;
    guess[ckt.node("wl") - 1] = 0.8;
    const spice::TransientResult tr =
        spice::solve_transient(ckt, spice::ambient_context(), {},
                               nl.analyses()[0].tstop, nullptr, &guess);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_GT(tr.final_voltage(ckt.node("q")), 0.7);
    EXPECT_LT(tr.final_voltage(ckt.node("qb")), 0.1);
}

TEST(Parse, NodesetDirective) {
    const Netlist nl = Netlist::parse(
        "t\nR1 q 0 1k\nV1 q 0 DC 1\n.nodeset v(q)=0.8 v(0)=0\n");
    ASSERT_EQ(nl.nodesets().size(), 2u);
    EXPECT_EQ(nl.nodesets()[0].first, "q");
    EXPECT_DOUBLE_EQ(nl.nodesets()[0].second, 0.8);
}

TEST(Parse, NodesetRejectsMalformed) {
    EXPECT_THROW(Netlist::parse("t\n.nodeset q=0.8\n"), ParseError);
}

TEST(Build, NodesetSelectsBistableState) {
    const char* deck = R"(latch
.model tn NTFET ()
.model tp PTFET ()
Vdd vdd 0 DC 0.8
MP1 a b vdd tp W=0.5
MN1 a b 0   tn W=0.6
MP2 b a vdd tp W=0.5
MN2 b a 0   tn W=0.6
.nodeset v(a)=0.8 v(b)=0 v(vdd)=0.8
)";
    const Netlist nl = Netlist::parse(deck);
    spice::Circuit ckt = nl.build();
    const la::Vector guess = nl.initial_guess(ckt);
    const spice::DcResult r =
        spice::solve_dc(ckt, spice::ambient_context(), {}, 0.0, &guess);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(spice::node_voltage(r.x, ckt.node("a")) -
                  spice::node_voltage(r.x, ckt.node("b")),
              0.6);
}

TEST(Parse, AcDirectiveAndStimulus) {
    const Netlist nl = Netlist::parse("t\n"
                                      "Vin in 0 DC 0.4 AC 2\n"
                                      "R1 in 0 1k\n"
                                      ".ac dec 5 1k 1meg\n");
    ASSERT_EQ(nl.analyses().size(), 1u);
    EXPECT_EQ(nl.analyses()[0].kind, Analysis::Kind::kAc);
    EXPECT_EQ(nl.analyses()[0].points_per_decade, 5u);
    EXPECT_DOUBLE_EQ(nl.analyses()[0].f_start, 1e3);
    EXPECT_DOUBLE_EQ(nl.analyses()[0].f_stop, 1e6);
    EXPECT_EQ(nl.ac_source(), "Vin");
    EXPECT_DOUBLE_EQ(nl.ac_magnitude(), 2.0);
    // The DC value survives the AC marker.
    spice::Circuit ckt = nl.build();
    EXPECT_DOUBLE_EQ(ckt.voltage_sources()[0]->waveform().initial(), 0.4);
}

TEST(Parse, AcRejectsBadSweep) {
    EXPECT_THROW(Netlist::parse("t\n.ac dec 5 1meg 1k\n"), ParseError);
    EXPECT_THROW(Netlist::parse("t\n.ac lin 5 1k 1meg\n"), ParseError);
    EXPECT_THROW(Netlist::parse("t\nI1 a 0 DC 1 AC 1\n"), ParseError);
}

TEST(Parse, DuplicateElementNameRejected) {
    try {
        Netlist::parse("t\nR1 a 0 1k\nV1 a 0 DC 1\nr1 a 0 2k\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        // Case-insensitive (classic SPICE), attributed to the duplicate.
        EXPECT_EQ(e.line(), 4u);
        EXPECT_NE(std::string(e.what()).find("duplicate element"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(Parse, DanglingNodeRejected) {
    // "mid" touches only R1's second terminal: one connection, not ground,
    // not a declared port.
    try {
        Netlist::parse("t\nV1 a 0 DC 1\nR1 a mid 1k\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("dangling node 'mid'"),
                  std::string::npos);
    }
}

TEST(Parse, PortsExemptDanglingNodes) {
    // The same single-ended node is fine once declared as a port — that is
    // exactly what .ports is for (external connection points).
    const Netlist nl =
        Netlist::parse("t\nV1 a 0 DC 1\nR1 a mid 1k\n.ports mid\n");
    ASSERT_EQ(nl.ports().size(), 1u);
    EXPECT_EQ(nl.ports()[0], "mid");
}

TEST(Parse, PortsAccessorLowercasesAndKeepsOrder) {
    const Netlist nl = Netlist::parse("t\n"
                                      "V1 Q 0 DC 1\n"
                                      "R1 Q QB 1k\n"
                                      "V2 QB 0 DC 0\n"
                                      ".ports Q QB\n");
    ASSERT_EQ(nl.ports().size(), 2u);
    EXPECT_EQ(nl.ports()[0], "q");
    EXPECT_EQ(nl.ports()[1], "qb");
}

TEST(Parse, PortsRejectsUndeclaredNode) {
    try {
        Netlist::parse("t\nV1 a 0 DC 1\nR1 a 0 1k\n.ports ghost\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 4u);
        EXPECT_NE(std::string(e.what()).find("undeclared node 'ghost'"),
                  std::string::npos);
    }
}

TEST(Parse, PortsRejectsEmptyDirective) {
    EXPECT_THROW(Netlist::parse("t\nR1 a 0 1k\nV1 a 0 DC 1\n.ports\n"),
                 ParseError);
}

TEST(Parse, PrintRejectsUndeclaredNode) {
    EXPECT_THROW(
        Netlist::parse("t\nR1 a 0 1k\nV1 a 0 DC 1\n.print v(ghost)\n"),
        ParseError);
}

TEST(Parse, NodesetRejectsUndeclaredNode) {
    EXPECT_THROW(
        Netlist::parse("t\nR1 a 0 1k\nV1 a 0 DC 1\n.nodeset v(ghost)=0.5\n"),
        ParseError);
}

TEST(Build, EachBuildIsIndependent) {
    const Netlist nl = Netlist::parse("t\nV1 a 0 DC 1\nR1 a 0 1k\n");
    spice::Circuit c1 = nl.build();
    spice::Circuit c2 = nl.build();
    EXPECT_EQ(c1.num_nodes(), c2.num_nodes());
    const spice::DcResult r1 =
        spice::solve_dc(c1, spice::ambient_context(), {});
    const spice::DcResult r2 =
        spice::solve_dc(c2, spice::ambient_context(), {});
    EXPECT_TRUE(r1.converged);
    EXPECT_TRUE(r2.converged);
}

} // namespace
} // namespace tfetsram::netlist
