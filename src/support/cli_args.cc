#include "support/cli_args.hh"

#include "support/string_utils.hh"

namespace ppm {

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &value_options)
{
    auto takes_value = [&](const std::string &name) {
        for (const auto &v : value_options) {
            if (v == name)
                return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        if (!startsWith(tok, "--")) {
            positionals_.push_back(tok);
            continue;
        }
        Opt opt;
        const auto eq = tok.find('=');
        if (eq != std::string::npos) {
            opt.name = tok.substr(2, eq - 2);
            opt.value = tok.substr(eq + 1);
        } else {
            opt.name = tok.substr(2);
            if (takes_value(opt.name) && i + 1 < argc) {
                opt.value = argv[i + 1];
                ++i;
            }
        }
        options_.push_back(std::move(opt));
    }
}

const CliArgs::Opt *
CliArgs::find(const std::string &name) const
{
    for (const auto &opt : options_) {
        if (opt.name == name) {
            opt.consumed = true;
            return &opt;
        }
    }
    return nullptr;
}

bool
CliArgs::flag(const std::string &name) const
{
    return find(name) != nullptr;
}

std::optional<std::string>
CliArgs::option(const std::string &name) const
{
    const Opt *opt = find(name);
    if (!opt)
        return std::nullopt;
    if (!opt->value)
        throw CliError("option --" + name + " needs a value");
    return opt->value;
}

std::optional<std::uint64_t>
CliArgs::intOption(const std::string &name, std::uint64_t max) const
{
    const auto v = option(name);
    if (!v)
        return std::nullopt;
    const auto n = parseUint(*v);
    if (!n || *n > max) {
        std::string want = "an unsigned integer";
        if (max != std::numeric_limits<std::uint64_t>::max())
            want += " up to " + std::to_string(max);
        throw CliError("option --" + name + " wants " + want +
                       ", got '" + *v + "'");
    }
    return n;
}

std::vector<std::string>
CliArgs::unconsumedOptions() const
{
    std::vector<std::string> out;
    for (const auto &opt : options_) {
        if (!opt.consumed)
            out.push_back(opt.name);
    }
    return out;
}

} // namespace ppm
