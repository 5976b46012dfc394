#include "runner/cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <atomic>

#include "runner/hash.hpp"
#include "runner/json.hpp"
#include "util/contracts.hpp"
#include "util/fault.hpp"

namespace tfetsram::runner {

std::string to_hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

CacheMode parse_cache_mode(std::string_view text) {
    if (text == "off" || text == "0")
        return CacheMode::kOff;
    if (text == "ro")
        return CacheMode::kReadOnly;
    return CacheMode::kReadWrite;
}

std::string to_string(CacheMode mode) {
    switch (mode) {
    case CacheMode::kOff: return "off";
    case CacheMode::kReadWrite: return "rw";
    case CacheMode::kReadOnly: return "ro";
    }
    return "?";
}

CacheKey& CacheKey::add(std::string_view field, std::string_view value) {
    TFET_EXPECTS(field.find('=') == std::string_view::npos);
    if (!text_.empty())
        text_ += ';';
    text_.append(field);
    text_ += '=';
    text_.append(value);
    return *this;
}

CacheKey& CacheKey::add(std::string_view field, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add(field, std::string_view(buf));
}

CacheKey& CacheKey::add(std::string_view field, std::size_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu", value);
    return add(field, std::string_view(buf));
}

std::string CacheKey::hash() const {
    const std::string salted =
        "schema" + std::to_string(kCacheSchemaVersion) + ";" + text_;
    return to_hex(fnv1a64(salted));
}

const std::string& TaskResult::get(std::string_view name) const {
    for (const auto& [k, v] : values)
        if (k == name)
            return v;
    throw contract_violation("TaskResult: no value named '" +
                             std::string(name) + "'");
}

std::vector<std::pair<std::string, std::string>>
bench_metrics(const TaskResult& result) {
    constexpr std::string_view prefix = "bench:";
    std::vector<std::pair<std::string, std::string>> metrics;
    for (const auto& [k, v] : result.values)
        if (k.size() > prefix.size() &&
            std::string_view(k).substr(0, prefix.size()) == prefix)
            metrics.emplace_back(k.substr(prefix.size()), v);
    return metrics;
}

ResultCache::ResultCache(std::filesystem::path dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode) {}

namespace {

Json to_json(const CacheKey& key, const TaskResult& result) {
    Json entry = Json::object();
    entry.set("schema", kCacheSchemaVersion);
    entry.set("key", key.text());
    Json values = Json::array();
    for (const auto& [k, v] : result.values) {
        Json pair = Json::array();
        pair.push_back(k);
        pair.push_back(v);
        values.push_back(std::move(pair));
    }
    entry.set("values", std::move(values));
    Json rows = Json::array();
    for (const auto& row : result.rows) {
        Json cells = Json::array();
        for (const auto& cell : row)
            cells.push_back(cell);
        rows.push_back(std::move(cells));
    }
    entry.set("rows", std::move(rows));
    return entry;
}

std::optional<TaskResult> from_json(const Json& entry, const CacheKey& key) {
    const Json* schema = entry.find("schema");
    const Json* key_text = entry.find("key");
    const Json* values = entry.find("values");
    const Json* rows = entry.find("rows");
    if (schema == nullptr || !schema->is_number() ||
        static_cast<int>(schema->as_number()) != kCacheSchemaVersion)
        return std::nullopt;
    // Full key comparison guards against a (cosmically unlikely) 64-bit
    // hash collision and against hand-edited entries.
    if (key_text == nullptr || !key_text->is_string() ||
        key_text->as_string() != key.text())
        return std::nullopt;
    if (values == nullptr || !values->is_array() || rows == nullptr ||
        !rows->is_array())
        return std::nullopt;

    TaskResult result;
    for (std::size_t i = 0; i < values->size(); ++i) {
        const Json& pair = values->at(i);
        if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_string() ||
            !pair.at(1).is_string())
            return std::nullopt;
        result.set(pair.at(0).as_string(), pair.at(1).as_string());
    }
    for (std::size_t i = 0; i < rows->size(); ++i) {
        const Json& row = rows->at(i);
        if (!row.is_array())
            return std::nullopt;
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (!row.at(c).is_string())
                return std::nullopt;
            cells.push_back(row.at(c).as_string());
        }
        result.rows.push_back(std::move(cells));
    }
    return result;
}

} // namespace

std::optional<TaskResult> ResultCache::load(const CacheKey& key) const {
    if (mode_ == CacheMode::kOff || key.empty())
        return std::nullopt;
    // Injected corruption reads as an unparseable entry — i.e. a miss, per
    // the contract that cache damage is never an error.
    if (fault::should_fail(fault::Site::kCacheLoad))
        return std::nullopt;
    const std::filesystem::path path = dir_ / (key.hash() + ".json");
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::optional<Json> entry = Json::parse(buf.str());
    if (!entry || !entry->is_object())
        return std::nullopt;
    return from_json(*entry, key);
}

bool ResultCache::store(const CacheKey& key, const TaskResult& result) const {
    if (mode_ != CacheMode::kReadWrite || key.empty())
        return false;
    if (fault::should_fail(fault::Site::kCacheStore))
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    const std::filesystem::path path = dir_ / (key.hash() + ".json");
    // Write-then-rename so concurrent readers (another bench process on the
    // same cache) never observe a truncated entry. The temp name is unique
    // per store so concurrent writers of the same key cannot clobber each
    // other's half-written temp file before its rename.
    static std::atomic<unsigned long> temp_serial{0};
    const std::filesystem::path tmp =
        path.string() + ".tmp" +
        std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << to_json(key, result).dump() << '\n';
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    const bool renamed = !ec;
    if (!renamed)
        std::filesystem::remove(tmp, ec);
    return renamed;
}

} // namespace tfetsram::runner
