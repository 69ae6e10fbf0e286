/**
 * @file
 * The one JSON reader and writer. Every document ppm reads (requests,
 * fingerprints, corpora, the observability exports its validators
 * check) is parsed by parseJson, and every document it writes is
 * built by JsonWriter, so escaping and number forms live in one place.
 * The parser takes the full RFC 8259 grammar, builds a DOM and throws
 * JsonError with byte offsets on malformed input.
 */

#ifndef PPM_SUPPORT_MINI_JSON_HH
#define PPM_SUPPORT_MINI_JSON_HH

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppm {

/** The input was not valid JSON. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One parsed JSON value; a tree of these is the document. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys keep the last occurrence. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member @p key of an object, or null when absent / not object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * Member @p key, which must exist: throws JsonError otherwise.
     */
    const JsonValue &at(std::string_view key) const;
};

/** Parse @p text as one JSON document; trailing garbage throws. */
JsonValue parseJson(std::string_view text);

/**
 * @p s as the body of a JSON string: quote and backslash escaped,
 * \n, \r and \t in short form, other control bytes as \u00XX.
 */
std::string jsonEscape(std::string_view s);

/**
 * Builds one JSON document into a string. The writer places the
 * commas; the caller opens and closes containers in order and names
 * every value inside an object with key(). Numbers take an explicit
 * form: integers verbatim, fixed() as printf("%.Nf") and general() as
 * the bytes `std::ostream << double` prints (printf("%g")). A NaN or
 * an infinity throws JsonError, since JSON cannot encode it.
 */
class JsonWriter
{
  public:
    /** Name the next value, a member of the open object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    JsonWriter &string(std::string_view v);
    JsonWriter &boolean(bool v) { return raw(v ? "true" : "false"); }
    JsonWriter &u64(std::uint64_t v) { return raw(std::to_string(v)); }
    JsonWriter &i64(std::int64_t v) { return raw(std::to_string(v)); }
    JsonWriter &fixed(double v, int decimals);
    JsonWriter &general(double v);

    /** Insert @p json, an already-encoded value, verbatim. */
    JsonWriter &raw(std::string_view json);

    /** Append a line break (whitespace, not a value). */
    JsonWriter &
    newline()
    {
        out_ += '\n';
        return *this;
    }

    /** The document so far. */
    const std::string &json() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    /** Write the comma that separates a value from the previous. */
    void separate();
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    JsonWriter &number(double v, std::chars_format format,
                       int precision);

    std::string out_;
    bool first_ = true;  ///< The open container holds nothing yet.
    bool keyed_ = false; ///< key() already wrote this value's comma.
};

} // namespace ppm

#endif // PPM_SUPPORT_MINI_JSON_HH
