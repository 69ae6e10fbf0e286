#include "support/env.hh"

#include <cctype>
#include <cstdlib>

#include "support/string_utils.hh"

namespace ppm {

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t min)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;

    const auto parsed = parseUint(s);
    if (!parsed) {
        throw EnvError(std::string(name) + ": expected an unsigned " +
                       "integer, got '" + s + "'");
    }
    const std::uint64_t v = *parsed;
    if (v < min) {
        throw EnvError(std::string(name) + ": value " + s +
                       " is below the minimum of " +
                       std::to_string(min));
    }
    return v;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    std::string v(s);
    for (char &c : v)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    throw EnvError(std::string(name) +
                   ": expected a boolean (0/1/true/false/yes/no/" +
                   "on/off), got '" + v + "'");
}

} // namespace ppm
