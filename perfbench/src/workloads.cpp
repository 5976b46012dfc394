#include "workloads.hpp"

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>

#include "array/array.hpp"
#include "hier/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/yield.hpp"
#include "runner/runner.hpp"
#include "spice/context.hpp"
#include "spice/solve_error.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "sram/snm.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tfetsram;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// mc_variation: samples per run_monte_carlo call and per yield estimate.
// The yield estimate draws a fixed count (no early stop), so every round
// does the same amount of work.
constexpr std::size_t kMcSamples = 16;
constexpr std::size_t kYieldSamples = 48;
// assist_sweep: beta points per grid, one per stratum of [0.6, 3.0].
constexpr std::size_t kBetaStrata = 12;
constexpr double kBetaMin = 0.6;
constexpr double kBetaMax = 3.0;
// array_column: operations per write/read sequence.
constexpr std::size_t kFlatOps = 8;
constexpr std::size_t kMixedOps = 40;

/// splitmix64 of (a, b): independent, reproducible streams per episode.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// Every round runs under an explicit context with an explicit solver
/// policy, so no process-wide override or environment knob reaches it.
spice::SimConfig bench_sim() {
    spice::SimConfig cfg;
    cfg.mode = spice::SolverMode::kAuto;
    return cfg;
}

[[noreturn]] void throw_nonconvergence(const char* message) {
    spice::SolveError err;
    err.code = spice::SolveErrorCode::kNonConvergence;
    err.message = message;
    throw spice::SolveException(std::move(err));
}

const char* tag(sram::Assist a) {
    switch (a) {
    case sram::Assist::kNone: return "none";
    case sram::Assist::kWaVddLowering: return "wa_vdd_lowering";
    case sram::Assist::kWaGndRaising: return "wa_gnd_raising";
    case sram::Assist::kWaWordlineLowering: return "wa_wl_lowering";
    case sram::Assist::kWaBitlineRaising: return "wa_bl_raising";
    case sram::Assist::kRaVddRaising: return "ra_vdd_raising";
    case sram::Assist::kRaGndLowering: return "ra_gnd_lowering";
    case sram::Assist::kRaWordlineRaising: return "ra_wl_raising";
    case sram::Assist::kRaBitlineLowering: return "ra_bl_lowering";
    }
    return "unknown";
}

const char* tag(sram::AccessDevice a) {
    switch (a) {
    case sram::AccessDevice::kOutwardN: return "outward_n";
    case sram::AccessDevice::kOutwardP: return "outward_p";
    case sram::AccessDevice::kInwardN: return "inward_n";
    case sram::AccessDevice::kInwardP: return "inward_p";
    case sram::AccessDevice::kCmos: return "cmos";
    }
    return "unknown";
}

/// Run `fn` as one timed unit: a span named `name` plus its host latency.
template <typename Fn>
auto unit_call(Probe& probe, const char* name, SpanId parent, Fn&& fn) {
    const Probe::Scope scope(probe, name, parent);
    struct Latency {
        Probe& probe;
        Clock::time_point start;
        ~Latency() { probe.unit_latency(seconds_between(start, Clock::now())); }
    } latency{probe, scope.start()};
    return fn();
}

/// Run `fn` as a call into a layer (span and timer, no unit).
template <typename Fn>
auto layer_call(Probe& probe, const char* name, Fn&& fn) {
    const Probe::Scope scope(probe, name);
    return fn();
}

sram::CellConfig tfet6t(const device::ModelSet& models, double beta,
                        sram::AccessDevice access = sram::AccessDevice::kInwardP) {
    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kTfet6T;
    cfg.access = access;
    cfg.beta = beta;
    cfg.models = models;
    return cfg;
}

// ---------------------------------------------------------- mc_variation

/// Sec. 4.3 Monte-Carlo: Fig. 9 (beta = 2, WLcrit under each write assist
/// plus DRNM, five passes over the same seeded draws), Fig. 10 (beta = 0.6,
/// DRNM under each read assist plus WLcrit) and Fig. 10's importance-
/// sampled WLcrit yield estimate.
void mc_variation(Bench& b, std::uint64_t episode, Outputs& out) {
    Probe& probe = b.probe;
    const spice::SimContext ctx(bench_sim());
    const spice::ScopedContext bind(ctx);
    const sram::MetricOptions opts;
    const mc::TfetVariationSampler sampler(mc::VariationSpec{});

    const auto wlcrit = [&](sram::Assist a) {
        return [&, a](sram::SramCell& cell) {
            const double wl = layer_call(probe, "sram.wlcrit", [&] {
                return sram::critical_wordline_pulse(cell, a, opts);
            });
            // NaN is a failed simulation (retried, then censored); +inf is
            // a genuine write failure and stays in the data.
            if (std::isnan(wl))
                throw_nonconvergence("wlcrit: transient simulation failed");
            return wl;
        };
    };
    const auto drnm = [&](sram::Assist a) {
        return [&, a](sram::SramCell& cell) {
            const sram::DrnmResult d = layer_call(probe, "sram.drnm", [&] {
                return sram::dynamic_read_noise_margin(cell, a, opts);
            });
            if (!d.valid)
                throw_nonconvergence("drnm: read transient failed");
            return d.flipped ? kNaN : d.drnm;
        };
    };

    const auto run_mc = [&](const std::string& label,
                            const sram::CellConfig& cfg, std::uint64_t seed,
                            const mc::CellMetric& metric) {
        const spice::SolverStats before = ctx.stats();
        mc::McResult res;
        {
            const Probe::Scope run(probe, "mc.run_monte_carlo");
            const SpanId parent = run.id();
            std::once_flag first_flag;
            std::optional<Clock::time_point> first;
            res = mc::run_monte_carlo(
                ctx, cfg, sampler, kMcSamples, seed,
                [&, parent](sram::SramCell& cell) {
                    std::call_once(first_flag, [&] { first = Clock::now(); });
                    return unit_call(probe, "mc.eval", parent,
                                     [&] { return metric(cell); });
                },
                b.threads);
            // The prelude (serial draw build and nominal hold solve) ends
            // where the first metric callback starts.
            const Clock::time_point prelude_end = first.value_or(Clock::now());
            probe.add("mc.prelude_s", seconds_between(run.start(), prelude_end));
            probe.record_span("device.draws", parent, run.start(), prelude_end);
        }
        probe.add_solver(ctx.stats() - before);
        probe.add("device.draws", kMcSamples);
        probe.add("mc.samples", kMcSamples);
        probe.add("mc.censored", static_cast<double>(res.n_censored));
        probe.add("mc.retried", static_cast<double>(res.n_retried));
        probe.count_units(kMcSamples, res.n_censored);
        const SampleSummary& s = res.summary;
        out.emplace_back(label + ".count", static_cast<double>(s.count));
        out.emplace_back(label + ".n_infinite", static_cast<double>(s.n_infinite));
        out.emplace_back(label + ".n_censored", static_cast<double>(res.n_censored));
        out.emplace_back(label + ".mean", s.mean);
        out.emplace_back(label + ".stddev", s.stddev);
        out.emplace_back(label + ".min", s.min);
        out.emplace_back(label + ".max", s.max);
    };

    // Fig. 9: the same draws serve all five passes.
    const sram::CellConfig cfg9 = tfet6t(b.models, 2.0);
    const std::uint64_t seed9 = mix(0xF19, episode);
    for (sram::Assist a : sram::kWriteAssists)
        run_mc(std::string("fig9.wlcrit.") + tag(a), cfg9, seed9, wlcrit(a));
    run_mc("fig9.drnm", cfg9, seed9, drnm(sram::Assist::kNone));

    // Fig. 10.
    const sram::CellConfig cfg10 = tfet6t(b.models, 0.6);
    const std::uint64_t seed10 = mix(0xF10, episode);
    for (sram::Assist a : sram::kReadAssists)
        run_mc(std::string("fig10.drnm.") + tag(a), cfg10, seed10, drnm(a));
    run_mc("fig10.wlcrit", cfg10, seed10, wlcrit(sram::Assist::kNone));

    // Fig. 10 tail: WLcrit beyond its own 4-sigma log-linear projection,
    // calibrated from evaluations at u = 0, +2 and -2.
    const auto wl_none = wlcrit(sram::Assist::kNone);
    const spice::SolverStats before = ctx.stats();
    const auto eval_at = [&](double u) {
        return unit_call(probe, "mc.calibrate", kInherit, [&] {
            sram::CellConfig c = cfg10;
            c.models = layer_call(probe, "device.sample_at",
                                  [&] { return sampler.sample_at(u).models; });
            sram::SramCell cell = layer_call(
                probe, "sram.build_cell", [&] { return sram::build_cell(c, &ctx); });
            return wl_none(cell);
        });
    };
    probe.add("device.draws", 3);
    double wl0 = kNaN;
    double wl_hi = kNaN;
    double wl_lo = kNaN;
    try {
        wl0 = eval_at(0.0);
        wl_hi = eval_at(2.0);
        wl_lo = eval_at(-2.0);
    } catch (const spice::SolveException&) {
    }
    const bool calibrated =
        wl0 > 0.0 && std::isfinite(wl_hi) && std::isfinite(wl_lo);
    probe.count_units(3, calibrated ? 0 : 1);
    if (!calibrated) {
        probe.add_solver(ctx.stats() - before);
        out.emplace_back("yield.calibrated", 0.0);
        return;
    }
    const double slope = (std::log(wl_hi) - std::log(wl_lo)) / 4.0;
    const double limit = wl0 * std::exp(4.0 * std::abs(slope));

    mc::YieldOptions yopts;
    yopts.proposal = mc::GaussianMixture::shifted(slope < 0.0 ? -4.0 : 4.0);
    yopts.batch = 16;
    yopts.min_samples = kYieldSamples;
    yopts.max_samples = kYieldSamples;
    yopts.min_failures = 4;
    yopts.target_rel_halfwidth = 0.5;

    mc::BatchStats bstats;
    mc::YieldEstimate est;
    {
        const Probe::Scope run(probe, "mc.estimate_cell_yield");
        const SpanId parent = run.id();
        mc::CellYieldProblem problem;
        problem.config = cfg10;
        problem.variation = mc::VariationSpec{};
        problem.metric = [&, parent](sram::SramCell& cell) {
            return unit_call(probe, "mc.eval", parent,
                             [&] { return wl_none(cell); });
        };
        problem.fails = [limit](double v) { return !(v <= limit); };
        est = mc::estimate_cell_yield(ctx, problem, yopts, mix(0x71E1D, episode),
                                      b.threads, mc::McPolicy{}, &bstats);
    }
    probe.add_solver(ctx.stats() - before);
    probe.add("device.draws", static_cast<double>(est.n_samples));
    probe.add("mc.samples", static_cast<double>(est.n_samples));
    probe.add("mc.censored", static_cast<double>(est.n_censored));
    probe.add("mc.yield_samples", static_cast<double>(est.n_samples));
    probe.add("mc.yield_ess", est.ess);
    probe.add("mc.model_retargets", static_cast<double>(bstats.model_retargets));
    probe.count_units(est.n_samples, est.n_censored);
    out.emplace_back("yield.calibrated", 1.0);
    out.emplace_back("yield.limit", limit);
    out.emplace_back("yield.p_fail", est.p_fail);
    out.emplace_back("yield.lower", est.lower);
    out.emplace_back("yield.upper", est.upper);
    out.emplace_back("yield.n_samples", static_cast<double>(est.n_samples));
    out.emplace_back("yield.n_fail", static_cast<double>(est.n_fail));
    out.emplace_back("yield.n_censored", static_cast<double>(est.n_censored));
    out.emplace_back("yield.ess", est.ess);
}

// ---------------------------------------------------------- assist_sweep

/// Nominal cell sweeps as runner tasks: WLcrit on a beta x write-assist
/// grid, DRNM on a beta x read-assist grid, hold and read SNM butterflies,
/// and worst-case hold power per access device.
void assist_sweep(Bench& b, std::uint64_t episode, Outputs& out) {
    Probe& probe = b.probe;
    Rng rng(mix(0xA55, episode));
    const auto draw_betas = [&] {
        std::array<double, kBetaStrata> betas{};
        const double width = (kBetaMax - kBetaMin) / kBetaStrata;
        for (std::size_t k = 0; k < kBetaStrata; ++k)
            betas[k] = rng.uniform(kBetaMin + width * k, kBetaMin + width * (k + 1));
        return betas;
    };
    const auto wl_betas = draw_betas();
    const auto drnm_betas = draw_betas();
    const auto snm_betas = draw_betas();
    const auto power_betas = draw_betas();

    // One sweep point: its output names and the computation filling them.
    struct Point {
        std::string name;
        std::function<std::vector<double>()> run;
        std::vector<std::string> outputs;
    };
    std::vector<Point> points;
    const sram::MetricOptions opts;
    const auto build = [&](const sram::CellConfig& cfg) {
        return layer_call(probe, "sram.build_cell",
                          [&] { return sram::build_cell(cfg); });
    };
    // The slow WLcrit points go first so the pool drains evenly.
    for (std::size_t k = 0; k < kBetaStrata; ++k)
        for (sram::Assist a : sram::kWriteAssists) {
            const sram::CellConfig cfg = tfet6t(b.models, wl_betas[k]);
            const std::string name =
                "wlcrit.b" + std::to_string(k) + "." + tag(a);
            points.push_back({name,
                              [&, cfg, a] {
                                  sram::SramCell cell = build(cfg);
                                  return std::vector<double>{layer_call(
                                      probe, "sram.wlcrit", [&] {
                                          return sram::critical_wordline_pulse(
                                              cell, a, opts);
                                      })};
                              },
                              {name}});
        }
    for (std::size_t k = 0; k < kBetaStrata; ++k)
        for (sram::Assist a : sram::kReadAssists) {
            const sram::CellConfig cfg = tfet6t(b.models, drnm_betas[k]);
            const std::string name = "drnm.b" + std::to_string(k) + "." + tag(a);
            points.push_back({name,
                              [&, cfg, a] {
                                  sram::SramCell cell = build(cfg);
                                  const sram::DrnmResult d = layer_call(
                                      probe, "sram.drnm", [&] {
                                          return sram::dynamic_read_noise_margin(
                                              cell, a, opts);
                                      });
                                  return std::vector<double>{
                                      d.valid ? d.drnm : kNaN,
                                      d.flipped ? 1.0 : 0.0};
                              },
                              {name, name + ".flipped"}});
        }
    for (std::size_t k = 0; k < kBetaStrata; ++k)
        for (sram::SnmMode mode : {sram::SnmMode::kHold, sram::SnmMode::kRead}) {
            const sram::CellConfig cfg = tfet6t(b.models, snm_betas[k]);
            const std::string name = std::string("snm.b") + std::to_string(k) +
                                     (mode == sram::SnmMode::kHold ? ".hold" : ".read");
            points.push_back({name,
                              [&, cfg, mode] {
                                  const sram::SnmResult s = layer_call(
                                      probe, "sram.snm", [&] {
                                          return sram::static_noise_margin(
                                              cfg, mode, 81, opts.solver);
                                      });
                                  return std::vector<double>{
                                      s.valid ? s.snm : kNaN, s.lobe_high,
                                      s.lobe_low};
                              },
                              {name, name + ".lobe_high", name + ".lobe_low"}});
        }
    for (std::size_t k = 0; k < kBetaStrata; k += 2)
        for (sram::AccessDevice access :
             {sram::AccessDevice::kOutwardN, sram::AccessDevice::kOutwardP,
              sram::AccessDevice::kInwardN, sram::AccessDevice::kInwardP}) {
            const sram::CellConfig cfg = tfet6t(b.models, power_betas[k], access);
            const std::string name =
                "hold_power.b" + std::to_string(k) + "." + tag(access);
            points.push_back({name,
                              [&, cfg] {
                                  sram::SramCell cell = build(cfg);
                                  return std::vector<double>{layer_call(
                                      probe, "sram.hold_power", [&] {
                                          return sram::worst_hold_static_power(
                                              cell, opts);
                                      })};
                              },
                              {name}});
        }

    runner::RunnerConfig rc;
    rc.run_name = "perfbench_assist_sweep";
    rc.threads = b.threads;
    rc.cache_mode = runner::CacheMode::kOff; // never replay a number
    rc.telemetry = false;
    rc.print_summary = false;
    rc.keep_going = true; // a failed point is counted, not fatal
    rc.sim = bench_sim();

    std::vector<std::vector<double>> values(points.size());
    runner::RunSummary summary;
    std::vector<runner::TaskStatus> status(points.size());
    {
        const Probe::Scope run(probe, "runner.run");
        const SpanId parent = run.id();
        runner::Runner r(rc);
        std::vector<runner::TaskId> ids;
        for (std::size_t i = 0; i < points.size(); ++i) {
            runner::TaskSpec spec;
            spec.id = points[i].name;
            spec.fn = [&, i, parent] {
                const spice::SimContext& ctx = spice::ambient_context();
                const spice::SolverStats before = ctx.stats();
                const Clock::time_point t0 = Clock::now();
                values[i] = unit_call(probe, "runner.task", parent, points[i].run);
                probe.max("runner.max_task_s", seconds_between(t0, Clock::now()));
                probe.add_solver(ctx.stats() - before);
                return runner::TaskResult{};
            };
            ids.push_back(r.add(std::move(spec)));
        }
        summary = r.run();
        for (std::size_t i = 0; i < ids.size(); ++i)
            status[i] = r.status(ids[i]);
    }
    probe.add("runner.tasks", static_cast<double>(summary.tasks));
    probe.add("runner.cache_hits", static_cast<double>(summary.cache_hits));

    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const bool ran = status[i] == runner::TaskStatus::kExecuted &&
                         values[i].size() == points[i].outputs.size();
        // NaN is a failed simulation; +inf (a write failure) is a result.
        if (!ran || std::isnan(values[i][0])) {
            ++failed;
            out.emplace_back(points[i].outputs[0], kNaN);
            continue;
        }
        for (std::size_t j = 0; j < values[i].size(); ++j)
            out.emplace_back(points[i].outputs[j], values[i][j]);
    }
    probe.count_units(points.size(), failed);
}

// ---------------------------------------------------------- array_column

/// Seeded write/read sequence on a stateful array driver (flat SramArray
/// or the mixed-level ArrayEngine): one write, then three reads, the first
/// of which revisits the address just written, so writes are checked too.
/// The fixed 1:3 mix keeps the p50 and p90 latency ranks inside one kind
/// of operation instead of on the gap between two.
template <typename Array>
void op_sequence(Probe& probe, const spice::SimContext& ctx, Array& arr,
                 std::vector<std::vector<bool>>& expected, std::size_t ops,
                 Rng& rng, const char* write_span, const char* read_span,
                 const std::string& label, Outputs& out,
                 std::uint64_t& functional) {
    std::size_t row = 0;
    std::size_t col = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        const std::string name = label + ".op" + std::to_string(i);
        const spice::SolverStats before = ctx.stats();
        bool ok = false;
        if (i % 4 == 0) {
            row = rng.index(arr.rows());
            col = rng.index(arr.cols());
            const bool value = rng.index(2) == 1;
            const array::OpResult w = unit_call(probe, write_span, kInherit, [&] {
                return arr.write(row, col, value);
            });
            ok = w.ok && arr.stored(row, col) == value;
            if (w.ok)
                expected[row][col] = value;
            out.emplace_back(name + ".write_ok", ok ? 1.0 : 0.0);
        } else {
            if (i % 4 != 1) {
                row = rng.index(arr.rows());
                col = rng.index(arr.cols());
            }
            const array::ReadResult rd = unit_call(probe, read_span, kInherit,
                                                   [&] { return arr.read(row, col); });
            ok = rd.ok && rd.value == expected[row][col];
            out.emplace_back(name + ".value", rd.value ? 1.0 : 0.0);
            out.emplace_back(name + ".differential", rd.differential);
        }
        probe.add_solver(ctx.stats() - before);
        functional += ok ? 1 : 0;
        probe.count_units(1, ok ? 0 : 1);
    }
}

std::vector<std::vector<bool>> random_data(Rng& rng, std::size_t rows,
                                           std::size_t cols) {
    std::vector<std::vector<bool>> data(rows, std::vector<bool>(cols));
    for (auto& row : data)
        for (std::size_t c = 0; c < cols; ++c)
            row[c] = rng.index(2) == 1;
    return data;
}

/// Flat sparse arrays (a 64x64 initialize, a write/read sequence on 16x8)
/// and the 1024x16 mixed-level column.
void array_column(Bench& b, std::uint64_t episode, Outputs& out) {
    Probe& probe = b.probe;
    const spice::SimContext ctx(bench_sim());
    const spice::ScopedContext bind(ctx);
    Rng rng(mix(0xA77, episode));
    array::ArrayConfig base;
    base.cell = sram::proposed_design(0.8, b.models).config;
    base.read_assist = sram::Assist::kRaGndLowering;

    // Initialize = build the circuit and establish its DC hold state.
    const auto init = [&](auto& holder, const char* span, auto&& make,
                          const std::vector<std::vector<bool>>& data,
                          const std::string& label) {
        const spice::SolverStats before = ctx.stats();
        const bool ok = unit_call(probe, span, kInherit, [&] {
            make();
            return holder->initialize(data);
        });
        probe.add_solver(ctx.stats() - before);
        probe.count_units(1, ok ? 0 : 1);
        out.emplace_back(label + ".init_ok", ok ? 1.0 : 0.0);
        return ok;
    };

    std::uint64_t flat_functional = 0;
    std::uint64_t flat_ops = 0;
    {
        array::ArrayConfig cfg = base;
        cfg.rows = 64;
        cfg.cols = 64;
        const auto data = random_data(rng, cfg.rows, cfg.cols);
        std::optional<array::SramArray> arr;
        const bool ok = init(arr, "array.init", [&] { arr.emplace(cfg, &ctx); },
                             data, "flat64x64");
        flat_functional += ok ? 1 : 0;
        ++flat_ops;
        probe.max("array.unknowns", static_cast<double>(arr->solver_info().unknowns));
    }
    {
        array::ArrayConfig cfg = base;
        cfg.rows = 16;
        cfg.cols = 8;
        auto data = random_data(rng, cfg.rows, cfg.cols);
        std::optional<array::SramArray> arr;
        const bool ok = init(arr, "array.init", [&] { arr.emplace(cfg, &ctx); },
                             data, "flat16x8");
        flat_functional += ok ? 1 : 0;
        ++flat_ops;
        if (ok) {
            op_sequence(probe, ctx, *arr, data, kFlatOps, rng, "array.write",
                        "array.read", "flat16x8", out, flat_functional);
            flat_ops += kFlatOps;
        }
    }
    probe.add("array.ops", static_cast<double>(flat_ops));
    probe.add("array.functional_ops", static_cast<double>(flat_functional));

    {
        array::ArrayConfig cfg = base;
        cfg.rows = 1024;
        cfg.cols = 16;
        // The read differential develops on a bitline whose capacitance
        // grows with the rows, so the sensing window scales past 32 rows.
        cfg.read_duration *= static_cast<double>(cfg.rows) / 32.0;
        auto data = random_data(rng, cfg.rows, cfg.cols);
        std::optional<hier::ArrayEngine> eng;
        const bool ok = init(eng, "hier.init", [&] {
            eng.emplace(cfg, hier::EngineMode::kMixed, hier::HierConfig{}, &ctx);
        }, data, "mixed1024x16");
        std::uint64_t functional = 0;
        if (ok)
            op_sequence(probe, ctx, *eng, data, kMixedOps, rng, "hier.write",
                        "hier.read", "mixed1024x16", out, functional);
        if (const hier::HierStats* hs = eng->hier_stats())
            probe.max("hier.active_unknowns",
                      static_cast<double>(hs->max_active_unknowns));
    }
}

} // namespace

RoundFn find_workload(std::string_view name) {
    if (name == "mc_variation")
        return mc_variation;
    if (name == "assist_sweep")
        return assist_sweep;
    if (name == "array_column")
        return array_column;
    return nullptr;
}

} // namespace perfbench
