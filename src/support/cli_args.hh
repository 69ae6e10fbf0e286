/**
 * @file
 * Minimal command-line argument helper for the ppm tool.
 *
 * Grammar: positionals and `--name[=value]` options in any order.
 * Options declared as value-taking at construction may also be
 * written `--name value`; everything else is a boolean flag.
 */

#ifndef PPM_SUPPORT_CLI_ARGS_HH
#define PPM_SUPPORT_CLI_ARGS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppm {

/** An option was given without its value or with a malformed one. */
class CliError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Parsed argv. */
class CliArgs
{
  public:
    /**
     * @p value_options names the options that take a value, so that
     * `--flag positional` never swallows the positional. Options not
     * listed are flags unless written as `--name=value`.
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<std::string> &value_options = {});

    /** Positional arguments, in order. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** True when `--name` appeared (with or without a value). */
    bool flag(const std::string &name) const;

    /**
     * Value of `--name=v` or `--name v`; nullopt when absent. Throws
     * CliError when the option was given without a value.
     */
    std::optional<std::string> option(const std::string &name) const;

    /**
     * Like option(), parsed with parseUint (decimal or 0x hex, no
     * sign). Throws CliError naming the option when the value does
     * not parse or exceeds @p max.
     */
    std::optional<std::uint64_t> intOption(
        const std::string &name,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const;

    /** Option names that were never queried (typo detection). */
    std::vector<std::string> unconsumedOptions() const;

  private:
    struct Opt
    {
        std::string name;
        std::optional<std::string> value;
        mutable bool consumed = false;
    };

    const Opt *find(const std::string &name) const;

    std::vector<std::string> positionals_;
    std::vector<Opt> options_;
};

} // namespace ppm

#endif // PPM_SUPPORT_CLI_ARGS_HH
