#pragma once
// Minimal JSON value for the runner subsystem: cache entries on disk, the
// JSONL run journal, and the BENCH_*.json summary artifact. Supports the
// full JSON data model but only the features those files need — ordered
// objects, exact double round-trips, and strict parsing with no recovery.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace tfetsram::runner {

/// Immutable-ish JSON tree. Objects preserve insertion order so dumped
/// files are deterministic (a requirement for byte-identical warm runs).
/// A value holds exactly one alternative (40 bytes on LP64), so large
/// trees such as a benchmark record of many rounds stay compact.
class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default; // null
    Json(bool b) : v_(b) {}
    Json(double v) : v_(v) {}
    Json(std::uint64_t v) : v_(static_cast<double>(v)) {}
    Json(int v) : v_(static_cast<double>(v)) {}
    Json(const char* s) : v_(std::string(s)) {}
    Json(std::string s) : v_(std::move(s)) {}

    static Json array() {
        Json j;
        j.v_ = Array{};
        return j;
    }
    static Json object() {
        Json j;
        j.v_ = Object{};
        return j;
    }

    /// The alternatives are declared in Type's order.
    [[nodiscard]] Type type() const { return static_cast<Type>(v_.index()); }
    [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
    [[nodiscard]] bool is_object() const { return type() == Type::kObject; }
    [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
    [[nodiscard]] bool is_string() const { return type() == Type::kString; }
    [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }

    /// Scalar reads; false, 0 or "" when the value has another type.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;

    /// Array/object element count (0 for scalars).
    [[nodiscard]] std::size_t size() const;

    /// Array element access and append; a contract violation on any other
    /// type, or (at) past the end.
    [[nodiscard]] const Json& at(std::size_t i) const;
    void push_back(Json v);

    /// Object member access; `set` appends or overwrites (a contract
    /// violation on a non-object), `find` returns nullptr when absent.
    void set(std::string key, Json value);
    [[nodiscard]] const Json* find(std::string_view key) const;
    /// An object's members; empty for any other type.
    [[nodiscard]] const Object& members() const;

    /// Compact single-line rendering. Doubles use %.17g so parse(dump(x))
    /// reproduces x bit-exactly; integral values print without exponent.
    [[nodiscard]] std::string dump() const;

    /// Strict parse of a complete JSON document; nullopt on any error or
    /// trailing garbage.
    static std::optional<Json> parse(std::string_view text);

private:
    std::variant<std::monostate, bool, double, std::string, Array, Object> v_;
};

/// Escape `s` as a JSON string literal body (no surrounding quotes).
std::string json_escape(std::string_view s);

} // namespace tfetsram::runner
