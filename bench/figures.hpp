#pragma once
// The bench library: every paper table and figure, the ablations and
// extensions, and the solver microbench, one `run_<name>` entry each, all
// driven by bench/run_all. Five entries (fig6, fig10, array_scaling,
// cell_zoo, microbench) build a task graph over the experiment runner
// (src/runner/): sweep points execute concurrently, cacheable results are
// served from the content-addressed cache on warm runs, and each run
// leaves a JSONL journal + BENCH_<name>.json in the out dir. The others
// compute inline. Every entry prints a console table and writes its CSV
// series under the config's out dir for replotting.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "device/models.hpp"
#include "mc/monte_carlo.hpp"
#include "runner/runner.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

namespace tfetsram::bench {

// One entry per program, in EXPERIMENTS.md order.
int run_fig2_tfet_iv(const runner::RunnerConfig& config);
int run_sec3_static_power(const runner::RunnerConfig& config);
int run_fig4_cell_stability(const runner::RunnerConfig& config);
int run_fig6_write_assist(const runner::RunnerConfig& config);
int run_fig7_read_assist(const runner::RunnerConfig& config);
int run_fig8_assist_tradeoff(const runner::RunnerConfig& config);
int run_fig9_mc_write_assist(const runner::RunnerConfig& config);
int run_fig10_mc_read_assist(const runner::RunnerConfig& config);
int run_fig11_delay(const runner::RunnerConfig& config);
int run_fig12_margins(const runner::RunnerConfig& config);
int run_sec5_static_power(const runner::RunnerConfig& config);
int run_sec5_area(const runner::RunnerConfig& config);
int run_ablation_assist_strength(const runner::RunnerConfig& config);
int run_ablation_assist_energy(const runner::RunnerConfig& config);
int run_ablation_temperature(const runner::RunnerConfig& config);
int run_half_select_study(const runner::RunnerConfig& config);
int run_readpath_study(const runner::RunnerConfig& config);
int run_array_scaling(const runner::RunnerConfig& config);
int run_cell_zoo(const runner::RunnerConfig& config);
int run_microbench(const runner::RunnerConfig& config);

/// Registry for the bench/run_all driver.
struct Figure {
    /// CLI name, run name and CSV stem; fig2_tfet_iv alone writes two
    /// CSVs, fig2a_forward_iv.csv and fig2b_reverse_iv.csv.
    const char* name;
    const char* what; ///< one-line description
    int (*fn)(const runner::RunnerConfig&);
};

const std::vector<Figure>& ported_figures();

/// The tabulated standard models (built once per process).
inline const device::ModelSet& standard_models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

/// The paper's preferred TFET operating range (Sec. 5).
inline const std::vector<double>& vdd_sweep() {
    static const std::vector<double> v = {0.5, 0.6, 0.7, 0.8, 0.9};
    return v;
}

/// Open a CSV sink `<name>.csv` in the config's out dir (created on
/// demand), next to the run's journal and BENCH json.
inline CsvWriter open_csv(const std::string& name,
                          const runner::RunnerConfig& config) {
    std::filesystem::create_directories(config.out_dir);
    return CsvWriter((config.out_dir / (name + ".csv")).string());
}

/// Read a named value from a task's result, degrading to `placeholder`
/// when the task was quarantined (keep-going mode) or cancelled (watchdog
/// / shutdown drain) and holds no result — so a degraded run still renders
/// its tables and CSVs with explicit placeholder points instead of
/// crashing on the missing value.
inline std::string value_or(const runner::Runner& r, runner::TaskId id,
                            std::string_view name,
                            const std::string& placeholder) {
    if (r.status(id) == runner::TaskStatus::kQuarantined ||
        r.status(id) == runner::TaskStatus::kCancelled)
        return placeholder;
    return r.result(id).get(name);
}

/// Standard banner.
inline void banner(const std::string& id, const std::string& what) {
    std::cout << "==================================================\n"
              << id << ": " << what << "\n"
              << "==================================================\n";
}

/// Closing note comparing against the paper's reported shape.
inline void expectation(const std::string& text) {
    std::cout << "\n[paper] " << text << "\n\n";
}

} // namespace tfetsram::bench
