#include "runner/intake.hh"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/cli_args.hh"
#include "support/gzip.hh"
#include "support/string_utils.hh"
#include "verify/families.hh"

namespace ppm {

namespace {

using F = IntakeField;
using K = IntakeKind;

/** The members each intake reads, in IntakeKind order. */
constexpr unsigned kCommon = fieldBit(F::Predictor) | fieldBit(F::Budget);
constexpr unsigned kReads[] = {
    kCommon | fieldBit(F::Workload) | fieldBit(F::Seed),
    kCommon | fieldBit(F::Family) | fieldBit(F::Seed),
    kCommon | fieldBit(F::Source) | fieldBit(F::Name) |
        fieldBit(F::Input) | fieldBit(F::InputFile),
    kCommon | fieldBit(F::Trace) | fieldBit(F::Name),
};

/** The intakes each IntakeForm reads. */
constexpr unsigned kFormReads[] = {
    fieldBit(F::Workload) | fieldBit(F::Source), 0xfu,
    fieldBit(F::Trace), 0};

/** Each field's command-line option, in IntakeField order. */
constexpr const char *kOptions[kIntakeFields] = {
    "workload", "family", nullptr, "trace-file", nullptr,
    "seed", "input", "input-file", "predictor", "max"};

/** One signed value per non-empty piece; a bad one names @p where. */
std::vector<Value>
parseValues(const std::vector<std::string_view> &pieces,
            const std::string &where)
{
    std::vector<Value> out;
    for (const std::string_view piece : pieces) {
        const auto v = parseInt(piece);
        if (!v && !piece.empty())
            throw CliError("bad value '" + std::string(piece) + "' in " +
                           where);
        if (v)
            out.push_back(static_cast<Value>(*v));
    }
    return out;
}

} // namespace

std::uint64_t
Intake::seedValue() const
{
    return seed.value_or(kind == K::Workload ? kDefaultWorkloadSeed : 0);
}

std::string
Intake::label() const
{
    static constexpr const char *kPrefix[] = {"workload:", "family:",
                                              "source:", "trace:"};
    return kPrefix[unsigned(kind)] + name;
}

std::vector<std::string>
checkIntake(const IntakeFields &f, unsigned reads, const std::string &kind)
{
    std::vector<std::string> errors;
    const unsigned intakes = f.found & 0xfu;
    if (!intakes && reads) {
        std::string names;
        for (unsigned i = 0; i < 4; ++i) {
            if (reads >> i & 1u)
                names += (names.empty() ? "" : ", ") + f.spelling[i];
        }
        errors.push_back(kind + " needs " +
                         (std::has_single_bit(reads) ? "" : "one of ") +
                         names);
        return errors;
    }
    // Every member the first intake does not read conflicts with it.
    const unsigned first = std::countr_zero(intakes);
    const std::string &with = intakes ? f.spelling[first] : kind;
    const auto conflict = [&](unsigned field, const std::string &other) {
        errors.push_back(f.spelling[field] + " conflicts with " + other);
    };
    if (intakes && !(reads >> first & 1u))
        conflict(first, kind);
    const unsigned read = intakes ? kReads[first] : 0;
    for (unsigned i = 0; i < kIntakeFields; ++i) {
        if (f.found & ~read & 1u << i)
            conflict(i, with);
    }
    if (f.found & fieldBit(F::Input) && f.found & fieldBit(F::InputFile))
        conflict(unsigned(F::Input), f.spelling[unsigned(F::InputFile)]);
    return errors;
}

std::vector<std::string>
intakeOptions(IntakeForm form, std::vector<std::string> more)
{
    static const std::vector<std::string> kFormOptions[] = {
        {"seed", "input", "input-file"},
        {"workload", "family", "trace-file", "seed"},
        {},
        {},
    };
    const std::vector<std::string> &own = kFormOptions[unsigned(form)];
    more.insert(more.begin(), own.begin(), own.end());
    return more;
}

std::optional<Intake>
parseIntakeArgs(const CliArgs &args, const std::string *target,
                IntakeForm form, const std::string &kind)
{
    IntakeFields f;
    for (unsigned i = 0; i < kIntakeFields; ++i) {
        f.spelling[i] = kOptions[i] ? std::string("--") + kOptions[i] : "";
        if (kOptions[i] && args.flag(kOptions[i]))
            f.found |= fieldBit(F(i));
    }
    f.spelling[unsigned(F::Source)] = "file.s";

    // A Program target names a workload when the roster has it.
    F at = form == IntakeForm::Trace ? F::Trace : F::Source;
    if (target && form == IntakeForm::Program &&
        std::ranges::any_of(allWorkloads(), [&](const Workload &w) {
            return w.name == *target;
        }))
        at = F::Workload;
    if (target) {
        f.found |= fieldBit(at);
        f.spelling[unsigned(at)] = (at == F::Workload ? "workload "
                                    : at == F::Trace  ? "trace file "
                                                      : "source file ") +
                                   *target;
    }
    std::string errors;
    for (const std::string &e :
         checkIntake(f, kFormReads[unsigned(form)], kind))
        errors += (errors.empty() ? "" : "; ") + e;
    if (!errors.empty())
        throw CliError(errors);
    if (form == IntakeForm::None)
        return std::nullopt;

    Intake in;
    in.kind = K(std::countr_zero(f.found));
    in.name = target && at == F(in.kind)
                  ? *target
                  : *args.option(kOptions[unsigned(in.kind)]);
    in.seed = args.intOption("seed");
    if (in.kind == K::Trace && isGzipFile(in.name))
        in.text = gunzipFile(in.name);
    else if (in.kind == K::Trace || in.kind == K::Source)
        in.text = readTextFile(in.name);
    if (const auto list = args.option("input")) {
        in.input = parseValues(splitAndTrim(*list, ','), "--input");
    } else if (const auto path = args.option("input-file")) {
        const std::string file = readTextFile(*path);
        auto lines = splitAndTrim(file, '\n');
        std::erase_if(lines, [](auto l) { return l.starts_with('#'); });
        in.input = parseValues(lines, *path);
    }
    return in;
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw CliError("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

ExperimentJob
resolveProgram(const Intake &intake, RunCache &cache, std::uint64_t budget)
{
    ExperimentJob job;
    job.config.maxInstrs = budget;
    std::vector<Value> input = intake.input;
    if (intake.kind == K::Workload) {
        const Workload &w = findWorkload(intake.name);
        job.program = cache.program(w.name, w.source, &job.assembleSec);
        input = w.makeInput(intake.seedValue());
        job.isFloat = w.isFloat;
    } else if (intake.kind == K::Family) {
        const verify::ScenarioFamily &f = verify::findFamily(intake.name);
        const std::uint64_t seed = intake.seedValue();
        job.program = cache.program(f.name + "-" + std::to_string(seed),
                                    f.generate(seed), &job.assembleSec);
        job.config.maxInstrs = f.instrBound;
    } else if (intake.kind == K::Source) {
        job.program =
            cache.program(intake.name, intake.text, &job.assembleSec);
    } else {
        throw std::logic_error("a trace intake has no program");
    }
    job.input = std::make_shared<const std::vector<Value>>(std::move(input));
    return job;
}

ImportedTrace
resolveTrace(const Intake &intake)
{
    std::istringstream in(intake.text);
    return parseBranchTrace(in, intake.name);
}

std::vector<ExperimentJob>
intakeJobs(ExperimentJob job, std::span<const PredictorKind> kinds)
{
    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kinds) {
        jobs.push_back(job);
        jobs.back().config.dpg.kind = kind;
        job.assembleSec = 0.0;
    }
    return jobs;
}

} // namespace ppm
