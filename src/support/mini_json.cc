#include "support/mini_json.hh"

#include <cctype>
#include <charconv>
#include <cmath>

namespace ppm {

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    // Last occurrence wins, matching common parser behavior.
    const JsonValue *found = nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            found = &v;
    }
    return found;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (!v) {
        throw JsonError("missing object member '" + std::string(key) +
                        "'");
    }
    return *v;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    /**
     * Deepest array/object nesting accepted. The parser recurses once
     * per level, so an unbounded depth lets one short hostile line
     * ("[[[[...") overflow the stack and kill the process; no document
     * this repository reads nests anywhere near this deep.
     */
    static constexpr unsigned kMaxDepth = 256;

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError(what + " at byte " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
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
            fail(std::string("expected '") + c + "'");
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

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("invalid literal");
        pos_ += word.size();
    }

    JsonValue
    value()
    {
        skipWs();
        JsonValue v;
        switch (peek()) {
          case '{':
            return objectValue();
          case '[':
            return arrayValue();
          case '"':
            v.kind = JsonValue::Kind::String;
            v.str = string();
            return v;
          case 't':
            literal("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
          case 'f':
            literal("false");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
          case 'n':
            literal("null");
            v.kind = JsonValue::Kind::Null;
            return v;
          default:
            return numberValue();
        }
    }

    /** Count one nesting level for the enclosing scope. */
    class Nest
    {
      public:
        explicit Nest(Parser &p) : p_(p)
        {
            if (p_.depth_ == kMaxDepth) {
                p_.fail("nesting deeper than " +
                        std::to_string(kMaxDepth) + " levels");
            }
            ++p_.depth_;
        }
        ~Nest() { --p_.depth_; }

      private:
        Parser &p_;
    };

    JsonValue
    objectValue()
    {
        const Nest nest(*this);
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), value());
            skipWs();
            if (consume('}'))
                return v;
            expect(',');
        }
    }

    JsonValue
    arrayValue()
    {
        const Nest nest(*this);
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            v.array.push_back(value());
            skipWs();
            if (consume(']'))
                return v;
            expect(',');
        }
    }

    unsigned
    hex4()
    {
        unsigned u = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++pos_;
            u <<= 4;
            if (c >= '0' && c <= '9')
                u |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                u |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                u |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return u;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            const char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = peek();
            ++pos_;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = hex4();
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // Surrogate pair.
                    expect('\\');
                    expect('u');
                    const unsigned lo = hex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    JsonValue
    numberValue()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            fail("invalid number");
        // RFC 8259: the integer part is "0" or a nonzero-led digit
        // run; a leading zero cannot be followed by more digits.
        if (!consume('0')) {
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        } else if (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
            fail("leading zero in number");
        }
        if (consume('.')) {
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("invalid number");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("invalid number");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::string_view piece =
            text_.substr(start, pos_ - start);
        const auto rc = std::from_chars(
            piece.data(), piece.data() + piece.size(), v.number);
        if (rc.ec != std::errc{})
            fail("unparseable number");
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; ///< Arrays/objects currently open.
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).document();
}

namespace {

/** Append @p s escaped, copying each run of plain bytes at once. */
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += "0123456789abcdef"[c >> 4];
            out += "0123456789abcdef"[c & 0xf];
        }
    }
    out.append(s, plain);
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::separate()
{
    if (!first_ && !keyed_)
        out_ += ',';
    first_ = keyed_ = false;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    string(name);
    out_ += ':';
    keyed_ = true;
    return *this;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    out_ += bracket;
    first_ = false;
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view v)
{
    separate();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

/** @p v as printf would print it with @p format's conversion. */
JsonWriter &
JsonWriter::number(double v, std::chars_format format, int precision)
{
    if (!std::isfinite(v))
        throw JsonError("JSON cannot encode a NaN or an infinity");
    char buf[512];
    const auto rc =
        std::to_chars(buf, buf + sizeof buf, v, format, precision);
    if (rc.ec != std::errc{})
        throw JsonError("number too long to encode");
    return raw(std::string_view(buf, rc.ptr - buf));
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    return number(v, std::chars_format::fixed, decimals);
}

JsonWriter &
JsonWriter::general(double v)
{
    return number(v, std::chars_format::general, 6);
}

} // namespace ppm
