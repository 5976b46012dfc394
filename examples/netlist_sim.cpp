// netlist_sim: a small command-line circuit simulator over the netlist
// front-end. Reads a SPICE-dialect deck, runs its .op/.tran analyses, and
// prints the .print nodes (operating-point values and transient series).
//
// Usage: netlist_sim <deck.sp> [--points N]
//
// Demo decks live in examples/netlists/.

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "netlist/netlist.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/report.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"
#include "util/units.hpp"

using namespace tfetsram;

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: netlist_sim <deck.sp> [--points N]\n";
        return 2;
    }
    std::size_t points = 25;
    for (int i = 2; i + 1 < argc; i += 2)
        if (std::strcmp(argv[i], "--points") == 0)
            points = static_cast<std::size_t>(std::atol(argv[i + 1]));

    try {
        // All analyses below run under one explicit simulation context
        // (backend policy, stats) built from the environment once, to the
        // default tolerances.
        const spice::SimContext ctx(spice::SimConfig::from_env());
        const spice::SolverOptions opts;
        const netlist::Netlist deck = netlist::Netlist::parse_file(argv[1]);
        std::cout << "* " << deck.title() << "\n"
                  << "* " << deck.element_count() << " elements, "
                  << deck.analyses().size() << " analyses\n";
        if (!deck.ports().empty()) {
            std::cout << "* ports:";
            for (const std::string& name : deck.ports())
                std::cout << ' ' << name;
            std::cout << "\n";
        }
        std::cout << "\n";

        for (const netlist::Analysis& an : deck.analyses()) {
            spice::Circuit ckt = deck.build();
            std::vector<spice::NodeId> nodes;
            for (const std::string& name : deck.print_nodes())
                nodes.push_back(ckt.node(name));

            const la::Vector guess = deck.initial_guess(ckt);
            const la::Vector* guess_ptr =
                deck.nodesets().empty() ? nullptr : &guess;

            if (an.kind == netlist::Analysis::Kind::kAc) {
                const spice::VoltageSource* stim = nullptr;
                for (const spice::VoltageSource* v : ckt.voltage_sources())
                    if (v->label() == deck.ac_source())
                        stim = v;
                if (stim == nullptr) {
                    std::cerr << ".ac without an AC-marked V source\n";
                    return 1;
                }
                const spice::AcResult ac = spice::solve_ac(
                    ckt, ctx, opts, {stim, deck.ac_magnitude()}, an.f_start,
                    an.f_stop, an.points_per_decade, guess_ptr);
                if (!ac.ok) {
                    std::cerr << "ac failed: " << ac.message << "\n";
                    return 1;
                }
                std::cout << "=== .ac dec " << an.points_per_decade << " "
                          << format_si(an.f_start, "Hz") << " .. "
                          << format_si(an.f_stop, "Hz") << " ===\nf";
                for (const std::string& name : deck.print_nodes())
                    std::cout << "\t|v(" << name << ")| dB";
                std::cout << "\n";
                const auto& freqs = ac.frequencies();
                for (std::size_t i = 0; i < freqs.size(); ++i) {
                    std::cout << format_si(freqs[i], "Hz");
                    for (spice::NodeId n : nodes) {
                        char buf[32];
                        std::snprintf(buf, sizeof(buf), "\t%+.2f",
                                      ac.magnitude_db(n, i));
                        std::cout << buf;
                    }
                    std::cout << "\n";
                }
                for (spice::NodeId n : nodes) {
                    const double fc = ac.corner_frequency(n);
                    if (!std::isnan(fc))
                        std::cout << "corner(" << ckt.node_name(n)
                                  << ") = " << format_si(fc, "Hz") << "\n";
                }
                std::cout << "\n";
                continue;
            }
            if (an.kind == netlist::Analysis::Kind::kOperatingPoint) {
                const spice::DcResult r =
                    spice::solve_dc(ckt, ctx, opts, 0.0, guess_ptr);
                if (!r.converged) {
                    std::cerr << "operating point did not converge\n";
                    return 1;
                }
                std::cout << "=== .op (" << r.strategy << ", "
                          << r.iterations << " iterations) ===\n";
                for (std::size_t i = 0; i < nodes.size(); ++i)
                    std::cout << "  v(" << deck.print_nodes()[i]
                              << ") = " << spice::node_voltage(r.x, nodes[i])
                              << " V\n";
                std::cout << "  static power = "
                          << format_si(spice::static_power(ckt, r.x), "W")
                          << "\n\n";
            } else {
                const spice::TransientResult tr = spice::solve_transient(
                    ckt, ctx, opts, an.tstop, nullptr, guess_ptr);
                if (!tr.completed) {
                    std::cerr << "transient failed: " << tr.message << "\n";
                    return 1;
                }
                std::cout << "=== .tran " << format_si(an.tstop, "s")
                          << " (" << tr.size() << " accepted steps) ===\n";
                std::cout << "t";
                for (const std::string& name : deck.print_nodes())
                    std::cout << "\tv(" << name << ")";
                std::cout << "\n";
                for (std::size_t i = 0; i <= points; ++i) {
                    const double t =
                        an.tstop * static_cast<double>(i) /
                        static_cast<double>(points);
                    std::cout << format_si(t, "s");
                    for (spice::NodeId n : nodes) {
                        char buf[32];
                        std::snprintf(buf, sizeof(buf), "\t%+.4f",
                                      tr.voltage_at(n, t));
                        std::cout << buf;
                    }
                    std::cout << "\n";
                }
                std::cout << "\n";
            }
        }
    } catch (const std::exception& ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 1;
    }
    return 0;
}
