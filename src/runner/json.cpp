#include "runner/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/contracts.hpp"

namespace tfetsram::runner {

bool Json::as_bool() const {
    const bool* b = std::get_if<bool>(&v_);
    return b != nullptr && *b;
}

double Json::as_number() const {
    const double* d = std::get_if<double>(&v_);
    return d != nullptr ? *d : 0.0;
}

const std::string& Json::as_string() const {
    static const std::string empty;
    const std::string* s = std::get_if<std::string>(&v_);
    return s != nullptr ? *s : empty;
}

std::size_t Json::size() const {
    if (const Array* a = std::get_if<Array>(&v_))
        return a->size();
    if (const Object* o = std::get_if<Object>(&v_))
        return o->size();
    return 0;
}

const Json& Json::at(std::size_t i) const {
    const Array* a = std::get_if<Array>(&v_);
    TFET_EXPECTS(a != nullptr && i < a->size());
    return (*a)[i];
}

void Json::push_back(Json v) {
    Array* a = std::get_if<Array>(&v_);
    TFET_EXPECTS(a != nullptr);
    a->push_back(std::move(v));
}

void Json::set(std::string key, Json value) {
    Object* o = std::get_if<Object>(&v_);
    TFET_EXPECTS(o != nullptr);
    for (auto& [k, v] : *o) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    o->emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(std::string_view key) const {
    for (const auto& [k, v] : members())
        if (k == key)
            return &v;
    return nullptr;
}

const Json::Object& Json::members() const {
    static const Object empty;
    const Object* o = std::get_if<Object>(&v_);
    return o != nullptr ? *o : empty;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void dump_number(std::string& out, double v) {
    if (std::isnan(v) || std::isinf(v)) {
        // JSON has no non-finite numbers; encode as null (the cache layer
        // stores formatted strings, so this only affects telemetry fields).
        out += "null";
        return;
    }
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    out += buf;
}

void dump_impl(const Json& j, std::string& out) {
    switch (j.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += j.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: dump_number(out, j.as_number()); break;
    case Json::Type::kString:
        out += '"';
        out += json_escape(j.as_string());
        out += '"';
        break;
    case Json::Type::kArray:
        out += '[';
        for (std::size_t i = 0; i < j.size(); ++i) {
            if (i > 0)
                out += ',';
            dump_impl(j.at(i), out);
        }
        out += ']';
        break;
    case Json::Type::kObject:
        out += '{';
        for (std::size_t i = 0; i < j.members().size(); ++i) {
            if (i > 0)
                out += ',';
            out += '"';
            out += json_escape(j.members()[i].first);
            out += "\":";
            dump_impl(j.members()[i].second, out);
        }
        out += '}';
        break;
    }
}

/// Recursive-descent parser over [p, end). Each function leaves p one past
/// the consumed text, or returns false on malformed input.
struct Parser {
    const char* p;
    const char* end;
    int depth = 0;

    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool literal(std::string_view word) {
        if (static_cast<std::size_t>(end - p) < word.size() ||
            std::string_view(p, word.size()) != word)
            return false;
        p += word.size();
        return true;
    }

    bool parse_string(std::string& out) {
        if (p >= end || *p != '"')
            return false;
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end)
                return false;
            const char esc = *p++;
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (end - p < 4)
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // We only ever emit \u for control characters; decode the
                // BMP scalar as UTF-8 for generality.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return false;
            }
        }
        if (p >= end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool parse_value(Json& out) {
        if (++depth > 64)
            return false; // runaway nesting guard
        skip_ws();
        if (p >= end)
            return false;
        bool ok = false;
        switch (*p) {
        case 'n': ok = literal("null"), out = Json(); break;
        case 't': ok = literal("true"), out = Json(true); break;
        case 'f': ok = literal("false"), out = Json(false); break;
        case '"': {
            std::string s;
            ok = parse_string(s);
            if (ok)
                out = Json(std::move(s));
            break;
        }
        case '[': {
            ++p;
            out = Json::array();
            skip_ws();
            if (p < end && *p == ']') {
                ++p;
                ok = true;
                break;
            }
            for (;;) {
                Json elem;
                if (!parse_value(elem))
                    return false;
                out.push_back(std::move(elem));
                skip_ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    ok = true;
                }
                break;
            }
            break;
        }
        case '{': {
            ++p;
            out = Json::object();
            skip_ws();
            if (p < end && *p == '}') {
                ++p;
                ok = true;
                break;
            }
            for (;;) {
                skip_ws();
                std::string key;
                if (!parse_string(key))
                    return false;
                skip_ws();
                if (p >= end || *p != ':')
                    return false;
                ++p;
                Json value;
                if (!parse_value(value))
                    return false;
                out.set(std::move(key), std::move(value));
                skip_ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    ok = true;
                }
                break;
            }
            break;
        }
        default: {
            char* num_end = nullptr;
            const double v = std::strtod(p, &num_end);
            if (num_end == p || num_end > end)
                return false;
            p = num_end;
            out = Json(v);
            ok = true;
        }
        }
        --depth;
        return ok;
    }
};

} // namespace

std::string Json::dump() const {
    std::string out;
    dump_impl(*this, out);
    return out;
}

std::optional<Json> Json::parse(std::string_view text) {
    Parser parser{text.data(), text.data() + text.size()};
    Json out;
    if (!parser.parse_value(out))
        return std::nullopt;
    parser.skip_ws();
    if (parser.p != parser.end)
        return std::nullopt; // trailing garbage
    return out;
}

} // namespace tfetsram::runner
