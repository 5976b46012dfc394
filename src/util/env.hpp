#pragma once
// Centralized environment access. Every TFETSRAM_* runtime knob is read
// through this module — env::raw() is the repo's single chokepoint around
// the process environment (ci.sh lints that no other translation unit
// calls the libc accessor directly) — so environment values act as
// *defaults layered under programmatic configuration* instead of ambient
// reads scattered across subsystems. EnvSnapshot captures every knob in
// one pass; spice::SimConfig::from_env and runner::RunnerConfig::from_env
// build their effective configuration from a snapshot, after which the
// simulation never consults the environment again.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tfetsram::env {

/// The one sanctioned wrapper over the libc environment accessor. Returns
/// nullptr when unset. Prefer the typed get_* helpers below.
const char* raw(const char* name);

// ---- pure parse helpers (unit-tested without touching the environment) --
// Enum-valued knobs are parsed by the layer that owns the enum
// (spice::parse_solver_mode, runner::parse_cache_mode).

/// Base-10 integer, optional leading '-'/'+'; nullopt on empty text, stray
/// characters, or overflow.
std::optional<long long> parse_int(std::string_view text);

/// Accepts 1/true/on/yes and 0/false/off/no (case-insensitive); nullopt
/// otherwise.
std::optional<bool> parse_bool(std::string_view text);

/// Finite base-10 floating-point value (strtod grammar, full-string match);
/// nullopt on empty text, stray characters, or non-finite results.
std::optional<double> parse_double(std::string_view text);

// ---- typed getters (fallback on unset or empty) -------------------------

/// Variable's value, or `fallback` when unset/empty.
std::string get_string(const char* name, std::string_view fallback = {});

/// Parsed integer, or `fallback` when unset/empty/unparseable.
long long get_int(const char* name, long long fallback);

/// Parsed double, or `fallback` when unset/empty/unparseable.
double get_double(const char* name, double fallback);

/// Parsed boolean. Unset/empty returns `fallback`; a recognized literal
/// returns its value; any other non-empty text arms the flag (true) —
/// preserving the historical "TFETSRAM_KEEP_GOING=anything" behavior.
bool get_bool(const char* name, bool fallback);

// ---- the one-pass snapshot ----------------------------------------------

/// Every TFETSRAM_* knob, read in one pass. Zero/empty fields mean
/// "unset — use the built-in default"; consumers layer programmatic
/// configuration on top (see docs/ARCHITECTURE.md).
struct EnvSnapshot {
    std::string solver;    ///< TFETSRAM_SOLVER: dense|sparse|auto ("" unset)
    std::string cache;     ///< TFETSRAM_CACHE: off|rw|ro ("" unset)
    std::string cache_dir; ///< TFETSRAM_CACHE_DIR ("" unset)
    std::string out_dir;   ///< TFETSRAM_OUT_DIR ("" unset)
    std::string faults;    ///< TFETSRAM_FAULTS injection spec ("" unset)
    std::size_t threads = 0;    ///< TFETSRAM_THREADS (0 = hardware)
    int retries = 0;            ///< TFETSRAM_RETRIES (0 = unset)
    bool keep_going = false;    ///< TFETSRAM_KEEP_GOING
    std::size_t mc_samples = 0; ///< TFETSRAM_MC_SAMPLES (0 = unset)
    std::uint64_t seed = 0;     ///< TFETSRAM_SEED RNG root (0 = unset)
    double task_timeout = 0.0;  ///< TFETSRAM_TASK_TIMEOUT wall budget [s]
                                ///< per task (0 = unlimited)
    double stall_timeout = 0.0; ///< TFETSRAM_STALL_TIMEOUT watchdog
                                ///< heartbeat-stall window [s] (0 = off)
    double backoff_base = 0.0;  ///< TFETSRAM_BACKOFF_BASE first retry
                                ///< delay [s] (0 = retry immediately)
    double backoff_max = 0.0;   ///< TFETSRAM_BACKOFF_MAX delay cap [s]
                                ///< (0 = unset, runner default applies)

    /// Read the environment now. from_env()-style entry points capture a
    /// fresh snapshot so tests that setenv() between calls see updates.
    static EnvSnapshot capture();

    /// Process-wide snapshot frozen at first use — what per-thread default
    /// SimContexts are built from.
    static const EnvSnapshot& process();
};

} // namespace tfetsram::env
