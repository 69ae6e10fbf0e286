/**
 * @file
 * Environment-variable parsing that fails loudly. A malformed value
 * (PPM_THREADS=abc) used to be silently treated as unset, which made
 * typos indistinguishable from defaults; these helpers throw EnvError
 * naming the variable instead. Unset/empty variables still yield the
 * caller's fallback.
 */

#ifndef PPM_SUPPORT_ENV_HH
#define PPM_SUPPORT_ENV_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ppm {

/** An environment variable held an unparseable value. */
class EnvError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse @p name as an unsigned integer (parseUint: decimal or 0x
 * hex). Unset or empty returns @p fallback; a non-numeric, signed,
 * overflowing, or below-@p min value throws EnvError naming the
 * variable.
 */
std::uint64_t envUint(const char *name, std::uint64_t fallback,
                      std::uint64_t min = 0);

/**
 * Parse @p name as a boolean flag. Unset or empty returns
 * @p fallback; "0"/"false"/"no"/"off" are false and
 * "1"/"true"/"yes"/"on" are true (case-sensitive); anything else
 * throws EnvError naming the variable.
 */
bool envFlag(const char *name, bool fallback);

} // namespace ppm

#endif // PPM_SUPPORT_ENV_HH
