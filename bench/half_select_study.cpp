// Half-select study (the Sec. 4.3 drawback, quantified). A write to one
// column puts every other cell of the asserted row in a pseudo-read: at
// the paper's write-favoring beta = 0.6 that disturb flips unprotected
// cells. Per-column segmented virtual grounds ([7]) let the GND-lowering
// assist protect exactly the half-selected columns.

#include "array/array.hpp"
#include "figures.hpp"

namespace tfetsram::bench {

namespace {

struct Outcome {
    bool write_ok = false;
    bool victim_held = false;
    double victim_separation = 0.0;
};

Outcome run_case(double beta, bool protect) {
    array::ArrayConfig cfg;
    cfg.rows = 1;
    cfg.cols = 2;
    cfg.cell = sram::proposed_design(0.8, standard_models()).config;
    cfg.cell.beta = beta;
    cfg.read_assist =
        protect ? sram::Assist::kRaGndLowering : sram::Assist::kNone;
    array::SramArray arr(cfg);
    Outcome out;
    if (!arr.initialize({{false, false}}))
        return out;
    const array::OpResult res = arr.write(0, 0, true);
    out.write_ok = res.ok;
    out.victim_held = !arr.stored(0, 1);
    out.victim_separation = arr.separation(0, 1);
    return out;
}

} // namespace

int run_half_select_study(const runner::RunnerConfig& config) {
    banner("Half-select study",
           "victim cell during a same-row write (VDD = 0.8 V)");

    auto csv = open_csv("half_select_study", config);
    csv.write_row(std::vector<std::string>{"beta", "protected", "write_ok",
                                           "victim_held", "separation"});

    TablePrinter table({"beta", "segmented-ground RA", "write", "victim",
                        "victim separation"});
    for (double beta : {0.6, 0.8, 1.0, 1.5}) {
        for (bool protect : {false, true}) {
            const Outcome out = run_case(beta, protect);
            table.add_row({format_sci(beta, 1), protect ? "on" : "off",
                           out.write_ok ? "ok" : "FAIL",
                           out.victim_held ? "held" : "FLIPPED",
                           core::format_margin(out.victim_separation)});
            csv.write_row({format_sci(beta, 2), protect ? "1" : "0",
                           out.write_ok ? "1" : "0",
                           out.victim_held ? "1" : "0",
                           format_sci(out.victim_separation, 4)});
        }
    }
    std::cout << table.render();

    expectation(
        "at the paper's beta = 0.6 the unprotected victim flips (the "
        "drawback the paper concedes); the segmented-virtual-ground "
        "GND-lowering assist restores full retention without disturbing "
        "the written column. At large beta the victim survives unassisted, "
        "but then the write itself needs assistance — the same tension, "
        "array-level.");
    return 0;
}

} // namespace tfetsram::bench
