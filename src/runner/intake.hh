/**
 * @file
 * What to analyze, named once. The ppm commands parse their intake
 * with parseIntakeArgs(), the serve daemon with serve::parseRequest();
 * both hand the members they found to checkIntake(). resolveProgram()
 * or resolveTrace() then turns the Intake into what the engine or
 * analyzeImported() runs, and intakeJobs() makes one job per
 * predictor. So every entry point analyzes one intake as one stream.
 */

#ifndef PPM_RUNNER_INTAKE_HH
#define PPM_RUNNER_INTAKE_HH

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/engine.hh"
#include "runner/trace_import.hh"

namespace ppm {

class CliArgs;

enum class IntakeKind : std::uint8_t { Workload, Family, Source, Trace };

/**
 * Exactly one of: a built-in workload with its input seed, a scenario
 * family (verify/families.hh) with its generator seed, an assembly
 * source text with its program name and input, or branch-trace
 * records (runner/trace_import.hh) with their name.
 */
struct Intake
{
    IntakeKind kind = IntakeKind::Workload;
    std::string name; ///< Workload, family, program or trace name.
    std::optional<std::uint64_t> seed; ///< A workload's or family's.
    std::string text; ///< A source's text or a trace's records.
    std::vector<Value> input; ///< A source's input stream.

    /**
     * A given seed as given, 0 included; else kDefaultWorkloadSeed for
     * a workload and 0 for the rest.
     */
    std::uint64_t seedValue() const;

    /** "workload:", "family:", "source:" or "trace:", then the name. */
    std::string label() const;

    bool operator==(const Intake &) const = default;
};

/** Every member beside a request's kind; the intakes lead. */
enum class IntakeField : std::uint8_t
{
    Workload, Family, Source, Trace, Name, Seed, Input, InputFile,
    Predictor, Budget,
};
inline constexpr std::size_t kIntakeFields = 10;

/** @p f's bit in a mask of fields. */
constexpr unsigned
fieldBit(IntakeField f)
{
    return 1u << unsigned(f);
}

/** The members a caller found, each as it spells it ("--max"). */
struct IntakeFields
{
    std::array<std::string, kIntakeFields> spelling;
    unsigned found = 0; ///< The fieldBit() of each member given.
};

/**
 * The one intake validator: exactly one intake, one of @p reads (a
 * mask of the intakes the caller's @p kind reads; a ping reads none
 * and no other member). Beside its own, Predictor and Budget, a
 * workload or family reads Seed, a source Name and one of Input and
 * InputFile, a trace Name. Returns one message per violation, naming
 * both members.
 */
std::vector<std::string> checkIntake(const IntakeFields &found,
                                     unsigned reads,
                                     const std::string &kind);

/** How a command line names its intake. */
enum class IntakeForm : std::uint8_t
{
    Program, ///< A workload or file.s target; --seed, --input(-file).
    Request, ///< ppm client: file.s, --workload, --family, --trace-file.
    Trace,   ///< ppm import: a branch-trace file target.
    None,    ///< ppm client --ping and the like: no intake at all.
};

/** @p form's intake options, then @p more: a command's option list. */
std::vector<std::string> intakeOptions(IntakeForm form,
                                       std::vector<std::string> more);

/**
 * The one command-line intake parser: @p target (the command's
 * positional, or null) as @p form reads it, its intake options,
 * --predictor and --max, checked by checkIntake() with @p kind naming
 * the command, then the files read (a trace file gunzipped when it is
 * gzip'd). nullopt for the None form. Throws CliError for a conflict,
 * a malformed input value or an unreadable file.
 */
std::optional<Intake> parseIntakeArgs(const CliArgs &args,
                                      const std::string *target,
                                      IntakeForm form,
                                      const std::string &kind);

/** The file at @p path; throws CliError when it cannot be read. */
std::string readTextFile(const std::string &path);

/**
 * The one program resolver: a job (dpg.kind unset) over the intake's
 * program, assembled through @p cache, and its input, with @p budget
 * unless a family brings its instrBound (its program is named
 * "<family>-<seed>"). Throws std::out_of_range for an unknown
 * workload or family, std::logic_error for a trace.
 */
ExperimentJob resolveProgram(const Intake &intake, RunCache &cache,
                             std::uint64_t budget);

/** A trace intake's records, parsed for analyzeImported(). */
ImportedTrace resolveTrace(const Intake &intake);

/** @p job once per kind in @p kinds; the first keeps assembleSec. */
std::vector<ExperimentJob> intakeJobs(ExperimentJob job,
                                      std::span<const PredictorKind> kinds);

} // namespace ppm

#endif // PPM_RUNNER_INTAKE_HH
