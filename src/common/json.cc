#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/log.h"

namespace gpushield {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw SimulationError("JSON parse error at offset " +
                              std::to_string(pos_) + ": " + what);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consume_literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    value()
    {
        skip_ws();
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = string();
            return v;
        }
        if (consume_literal("true")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consume_literal("false")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (consume_literal("null"))
            return {};
        return number();
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            v.object.emplace(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = peek();
                ++pos_;
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': out += escaped_ascii(); break;
                default: fail("unsupported escape sequence");
                }
                continue;
            }
            out += c;
        }
    }

    /** A \u escape's code point; only ASCII ones are supported. */
    char
    escaped_ascii()
    {
        const std::string digits(text_.substr(pos_, 4));
        if (digits.size() != 4 ||
            digits.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            fail("bad \\u escape");
        const unsigned long code = std::strtoul(digits.c_str(), nullptr, 16);
        if (code >= 0x80)
            fail("non-ASCII \\u escapes are not supported");
        pos_ += 4;
        return static_cast<char>(code);
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number '" + token + "'");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        if (token.find_first_not_of("0123456789") == std::string::npos) {
            errno = 0;
            v.uint = std::strtoull(token.c_str(), nullptr, 10);
            v.is_uint = errno != ERANGE;
        }
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parse_json(std::string_view text)
{
    return Parser(text).parse();
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace gpushield
