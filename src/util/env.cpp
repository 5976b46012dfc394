#include "util/env.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>

namespace tfetsram::env {

const char* raw(const char* name) {
    return std::getenv(name); // the repo's only direct environment read
}

std::optional<long long> parse_int(std::string_view text) {
    if (text.empty())
        return std::nullopt;
    std::size_t i = 0;
    bool negative = false;
    if (text[0] == '+' || text[0] == '-') {
        negative = text[0] == '-';
        if (text.size() == 1)
            return std::nullopt;
        i = 1;
    }
    constexpr long long kMax = std::numeric_limits<long long>::max();
    long long value = 0;
    for (; i < text.size(); ++i) {
        const char ch = text[i];
        if (ch < '0' || ch > '9')
            return std::nullopt;
        const int digit = ch - '0';
        if (value > (kMax - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    return negative ? -value : value;
}

std::optional<bool> parse_bool(std::string_view text) {
    std::string lower;
    lower.reserve(text.size());
    for (char ch : text)
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    if (lower == "1" || lower == "true" || lower == "on" || lower == "yes")
        return true;
    if (lower == "0" || lower == "false" || lower == "off" || lower == "no")
        return false;
    return std::nullopt;
}

std::optional<double> parse_double(std::string_view text) {
    if (text.empty())
        return std::nullopt;
    const std::string owned(text); // strtod needs a terminator
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == owned.c_str())
        return std::nullopt;
    if (!(value == value) || value > std::numeric_limits<double>::max() ||
        value < -std::numeric_limits<double>::max())
        return std::nullopt; // NaN or infinite
    return value;
}

std::string get_string(const char* name, std::string_view fallback) {
    const char* value = raw(name);
    if (value == nullptr || *value == '\0')
        return std::string(fallback);
    return value;
}

long long get_int(const char* name, long long fallback) {
    const char* value = raw(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return parse_int(value).value_or(fallback);
}

double get_double(const char* name, double fallback) {
    const char* value = raw(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return parse_double(value).value_or(fallback);
}

bool get_bool(const char* name, bool fallback) {
    const char* value = raw(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    // Unrecognized non-empty text arms the flag — "KEEP_GOING=please" has
    // always meant yes.
    return parse_bool(value).value_or(true);
}

EnvSnapshot EnvSnapshot::capture() {
    EnvSnapshot snap;
    snap.solver = get_string("TFETSRAM_SOLVER");
    snap.cache = get_string("TFETSRAM_CACHE");
    snap.cache_dir = get_string("TFETSRAM_CACHE_DIR");
    snap.out_dir = get_string("TFETSRAM_OUT_DIR");
    snap.faults = get_string("TFETSRAM_FAULTS");
    const long long threads = get_int("TFETSRAM_THREADS", 0);
    if (threads > 0)
        snap.threads = static_cast<std::size_t>(threads);
    const long long retries = get_int("TFETSRAM_RETRIES", 0);
    if (retries > 0)
        snap.retries = static_cast<int>(retries);
    snap.keep_going = get_bool("TFETSRAM_KEEP_GOING", false);
    const long long samples = get_int("TFETSRAM_MC_SAMPLES", 0);
    if (samples > 0)
        snap.mc_samples = static_cast<std::size_t>(samples);
    const long long seed = get_int("TFETSRAM_SEED", 0);
    if (seed > 0)
        snap.seed = static_cast<std::uint64_t>(seed);
    const double task_timeout = get_double("TFETSRAM_TASK_TIMEOUT", 0.0);
    if (task_timeout > 0)
        snap.task_timeout = task_timeout;
    const double stall_timeout = get_double("TFETSRAM_STALL_TIMEOUT", 0.0);
    if (stall_timeout > 0)
        snap.stall_timeout = stall_timeout;
    const double backoff_base = get_double("TFETSRAM_BACKOFF_BASE", 0.0);
    if (backoff_base > 0)
        snap.backoff_base = backoff_base;
    const double backoff_max = get_double("TFETSRAM_BACKOFF_MAX", 0.0);
    if (backoff_max > 0)
        snap.backoff_max = backoff_max;
    return snap;
}

const EnvSnapshot& EnvSnapshot::process() {
    static const EnvSnapshot frozen = capture();
    return frozen;
}

} // namespace tfetsram::env
