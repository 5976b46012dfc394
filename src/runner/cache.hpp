#pragma once
// Content-addressed result cache. A task declares its inputs through a
// CacheKey (cell config fields, sweep point, solver options, model-set
// version, ...); the canonical key text is hashed to name a JSON entry
// under .tfetsram_cache/. Re-running a bench after an unrelated edit then
// replays the stored results instead of re-simulating.
//
// Environment control: TFETSRAM_CACHE=off|rw|ro (default rw).

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tfetsram::runner {

/// Bumped whenever the entry format or result semantics change; stale
/// entries simply miss. v2: Monte-Carlo task payloads gained censored
/// sample accounting.
inline constexpr int kCacheSchemaVersion = 2;

enum class CacheMode {
    kOff,       ///< never read or write
    kReadWrite, ///< read hits, store misses (default)
    kReadOnly,  ///< read hits, never store (e.g. CI against a fixed cache)
};

/// Parse a cache-mode spelling ("off"/"0", "ro", anything else -> rw);
/// an empty string means the default kReadWrite.
CacheMode parse_cache_mode(std::string_view text);
std::string to_string(CacheMode mode);

/// Ordered field=value builder producing the canonical key text. Add every
/// input that affects the task's result — anything omitted becomes a stale
/// hit waiting to happen; anything extra merely loses hits.
class CacheKey {
public:
    CacheKey() = default;
    explicit CacheKey(std::string_view task_kind) { add("task", task_kind); }

    CacheKey& add(std::string_view field, std::string_view value);
    CacheKey& add(std::string_view field, const char* value) {
        return add(field, std::string_view(value));
    }
    CacheKey& add(std::string_view field, double value);
    CacheKey& add(std::string_view field, std::size_t value);
    CacheKey& add(std::string_view field, int value) {
        return add(field, static_cast<double>(value));
    }
    CacheKey& add(std::string_view field, bool value) {
        return add(field, std::string_view(value ? "true" : "false"));
    }

    /// Canonical text, e.g. "task=fig6;beta=1.5;assist=gnd_raising".
    [[nodiscard]] const std::string& text() const { return text_; }
    [[nodiscard]] bool empty() const { return text_.empty(); }

    /// 16-hex-digit content hash of the key text + schema version.
    [[nodiscard]] std::string hash() const;

private:
    std::string text_;
};

/// What a task computed, in replay-ready form: named scalar values and
/// table rows, all pre-formatted strings. Storing the formatted text (not
/// raw doubles) is what makes a warm run byte-identical to the cold one.
struct TaskResult {
    std::vector<std::pair<std::string, std::string>> values;
    std::vector<std::vector<std::string>> rows;

    void set(std::string name, std::string value) {
        values.emplace_back(std::move(name), std::move(value));
    }
    /// Value lookup; throws contract_violation when absent (a task reading
    /// a value it never stored is a programming error, not a cache miss).
    [[nodiscard]] const std::string& get(std::string_view name) const;

    friend bool operator==(const TaskResult&, const TaskResult&) = default;
};

/// The "bench:"-prefixed values of a result, prefix stripped, in insertion
/// order: a task's opt-in channel for publishing scalar metrics (yield
/// estimates, confidence bounds, ...) into the run journal and the BENCH
/// artifact. Because the values ride the cached TaskResult, the metrics
/// reappear on warm (cache-hit) runs too.
std::vector<std::pair<std::string, std::string>>
bench_metrics(const TaskResult& result);

/// Directory of {hash -> TaskResult} JSON entries. Thread-safe: entries
/// are written via rename so concurrent readers never see partial files.
class ResultCache {
public:
    ResultCache(std::filesystem::path dir, CacheMode mode);

    [[nodiscard]] CacheMode mode() const { return mode_; }
    [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

    /// Look up `key`; nullopt on miss, cache off, schema/key mismatch, or
    /// unparseable entry (treated as miss, never an error).
    [[nodiscard]] std::optional<TaskResult> load(const CacheKey& key) const;

    /// Persist `result` under `key`. Returns false when the mode forbids
    /// writing or the store failed (both non-fatal: the run still has the
    /// in-memory result).
    bool store(const CacheKey& key, const TaskResult& result) const;

private:
    std::filesystem::path dir_;
    CacheMode mode_;
};

} // namespace tfetsram::runner
