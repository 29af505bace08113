#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pargpu
{

namespace
{

const Json kNull{};

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
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
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null like most tolerant writers.
        out += "null";
        return;
    }
    // Integers (the common case: counters, cycles) print without a
    // fraction; everything else with enough digits to round-trip.
    double ip;
    // modf returns exactly 0.0 for integral values. pargpu-lint: allow(float-eq)
    if (std::modf(v, &ip) == 0.0 && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        out += buf;
    } else {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
    }
}

/** Recursive-descent parser over a byte string. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    Json
    run()
    {
        Json v = parseValue();
        if (failed_)
            return Json{};
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters");
            return Json{};
        }
        return v;
    }

  private:
    void
    fail(const char *msg)
    {
        if (!failed_ && error_ != nullptr)
            *error_ = std::string(msg) + " at offset " +
                std::to_string(pos_);
        failed_ = true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Json{};
        }
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            // Each nested container costs one parseValue() frame; bound
            // the recursion before it can exhaust the stack.
            if (depth_ >= Json::kMaxParseDepth) {
                fail("nesting deeper than the parser's limit");
                return Json{};
            }
            ++depth_;
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json{parseString()};
        if (c == 't') {
            if (literal("true"))
                return Json{true};
            fail("bad literal");
            return Json{};
        }
        if (c == 'f') {
            if (literal("false"))
                return Json{false};
            fail("bad literal");
            return Json{};
        }
        if (c == 'n') {
            if (literal("null"))
                return Json{};
            fail("bad literal");
            return Json{};
        }
        return parseNumber();
    }

    /** Read the four hex digits of a \u escape into @p code. */
    bool
    parseHex4(unsigned &code)
    {
        if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
            return false;
        }
        code = 0;
        for (int k = 0; k < 4; ++k) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else {
                fail("bad \\u escape");
                return false;
            }
        }
        return true;
    }

    /** UTF-8 encode code point @p code (never a surrogate) onto @p out. */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    unsigned code = 0;
                    if (!parseHex4(code))
                        return out;
                    // A high surrogate must be followed by an escaped low
                    // surrogate; the pair names one supplementary code
                    // point. Either half on its own is not a character
                    // and has no UTF-8 encoding.
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        unsigned low = 0;
                        if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("lone surrogate in \\u escape");
                            return out;
                        }
                        pos_ += 2;
                        if (!parseHex4(low))
                            return out;
                        if (low < 0xDC00 || low > 0xDFFF) {
                            fail("lone surrogate in \\u escape");
                            return out;
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) +
                            (low - 0xDC00);
                    } else if (code >= 0xDC00 && code <= 0xDFFF) {
                        fail("lone surrogate in \\u escape");
                        return out;
                    }
                    appendUtf8(out, code);
                    break;
                }
                default:
                    fail("bad escape");
                    return out;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    parseNumber()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                digits = true;
            }
        };
        eatDigits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            eatDigits();
        }
        if (digits && pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '-' || text_[pos_] == '+'))
                ++pos_;
            eatDigits();
        }
        if (!digits) {
            fail("expected number");
            return Json{};
        }
        // strtod saturates an out-of-range literal such as 1e999 to
        // infinity, which JSON cannot represent (dump() would write null).
        double v = std::strtod(text_.c_str() + start, nullptr);
        if (!std::isfinite(v)) {
            fail("number out of range");
            return Json{};
        }
        return Json{v};
    }

    Json
    parseArray()
    {
        Json out = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return out;
        while (!failed_) {
            out.push(parseValue());
            skipWs();
            if (consume(']'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return out;
            }
        }
        return out;
    }

    Json
    parseObject()
    {
        Json out = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return out;
        while (!failed_) {
            skipWs();
            std::string key = parseString();
            if (failed_)
                return out;
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                return out;
            }
            out.set(key, parseValue());
            skipWs();
            if (consume('}'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return out;
            }
        }
        return out;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< Containers currently open.
    bool failed_ = false;
};

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    obj_[key] = std::move(v);
}

bool
Json::has(const std::string &key) const
{
    return obj_.count(key) != 0;
}

const Json &
Json::operator[](const std::string &key) const
{
    auto it = obj_.find(key);
    return it == obj_.end() ? kNull : it->second;
}

const Json &
Json::operator[](std::size_t i) const
{
    return i < arr_.size() ? arr_[i] : kNull;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: appendNumber(out, num_); break;
    case Type::String: appendEscaped(out, str_); break;
    case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out += ']';
        break;
    case Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            appendEscaped(out, k);
            out += pretty ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newline(depth);
        out += '}';
        break;
    }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Json
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).run();
}

} // namespace pargpu
