// The bench driver: runs any subset of the registered figures by name
// (default: all of them, in EXPERIMENTS.md order) in one process, sharing
// one result cache across the runner-based ones.
//
//   run_all                      # every figure
//   run_all fig6_write_assist array_scaling
//   run_all --list               # what's available
//   run_all --keep-going         # quarantine failed tasks, finish the rest
//
// Cache/output behavior follows the TFETSRAM_* env vars (docs/RUNNER.md);
// failure handling (TFETSRAM_KEEP_GOING, TFETSRAM_RETRIES, TFETSRAM_FAULTS)
// is documented in docs/ROBUSTNESS.md.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "figures.hpp"
#include "runner/signal.hpp"

using namespace tfetsram;

namespace {

void list_figures() {
    std::cout << "figures:\n";
    for (const bench::Figure& fig : bench::ported_figures())
        std::cout << "  " << fig.name << " — " << fig.what << "\n";
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> wanted;
    bool keep_going = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list" || arg == "-l") {
            list_figures();
            return 0;
        }
        if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: run_all [--list] [--keep-going] [figure...]\n";
            list_figures();
            return 0;
        }
        if (arg == "--keep-going" || arg == "-k") {
            keep_going = true;
            continue;
        }
        if (arg != "all")
            wanted.push_back(arg);
    }

    // Resolve the selection up front so a typo fails before hours of sweeps.
    std::vector<const bench::Figure*> selection;
    if (wanted.empty()) {
        for (const bench::Figure& fig : bench::ported_figures())
            selection.push_back(&fig);
    } else {
        for (const std::string& name : wanted) {
            const bench::Figure* found = nullptr;
            for (const bench::Figure& fig : bench::ported_figures())
                if (name == fig.name)
                    found = &fig;
            if (found == nullptr) {
                std::cerr << "run_all: unknown figure '" << name << "'\n";
                list_figures();
                return 2;
            }
            selection.push_back(found);
        }
    }

    // SIGINT/SIGTERM → cooperative drain: the runner's watchdog thread
    // sees the flag, cancels every in-flight task context, queued tasks
    // are journaled as cancelled, and telemetry (journal + BENCH json) is
    // flushed atomically before we exit nonzero. A second signal kills
    // the process outright (the handler re-arms the default disposition).
    runner::install_signal_handlers();

    int rc = 0;
    for (const bench::Figure* fig : selection) {
        runner::RunnerConfig cfg = runner::RunnerConfig::from_env(fig->name);
        cfg.keep_going = cfg.keep_going || keep_going;
        const int figure_rc = fig->fn(cfg);
        if (figure_rc != 0) {
            std::cerr << "run_all: " << fig->name << " exited with "
                      << figure_rc << "\n";
            rc = 1;
        }
        if (runner::shutdown_requested()) {
            std::cerr << "run_all: interrupted — run drained and "
                         "telemetry flushed; remaining figures skipped\n";
            return 130; // conventional fatal-signal exit status
        }
    }
    return rc;
}
