#include "support/string_utils.hh"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

namespace ppm {

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view>
splitAndTrim(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.push_back(trim(s.substr(start)));
            break;
        }
        out.push_back(trim(s.substr(start, pos - start)));
        start = pos + 1;
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
formatPercent(double fraction, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, fraction * 100.0);
    return buf;
}

std::string
formatCount(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    const std::size_t n = digits.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i != 0 && (n - i) % 3 == 0)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
formatDouble(double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::optional<std::uint64_t>
parseUint(std::string_view text)
{
    int base = 10;
    if (startsWith(text, "0x") || startsWith(text, "0X")) {
        base = 16;
        text.remove_prefix(2);
    }
    // from_chars takes no sign and no whitespace for an unsigned type,
    // and refuses an empty range.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto rc = std::from_chars(text.data(), end, v, base);
    if (rc.ec != std::errc{} || rc.ptr != end)
        return std::nullopt;
    return v;
}

std::optional<std::int64_t>
parseInt(std::string_view text)
{
    const bool negative = startsWith(text, "-");
    const auto magnitude = parseUint(text.substr(negative));
    const auto limit = static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()) +
                       negative;
    if (!magnitude || *magnitude > limit)
        return std::nullopt;
    return static_cast<std::int64_t>(negative ? 0 - *magnitude
                                              : *magnitude);
}

} // namespace ppm
