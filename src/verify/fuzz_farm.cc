#include "verify/fuzz_farm.hh"

#include <ostream>

#include "runner/intake.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"
#include "verify/invariant_checker.hh"

namespace ppm::verify {

namespace {

/** One (family, seed) cell through the engine; throws on any check. */
struct CellResult
{
    std::vector<DpgStats> runs;
    std::uint64_t dynInstrs = 0;
};

CellResult
runCell(ExperimentEngine &engine, const Intake &intake)
{
    // The budget is the family's structural bound, so reaching it
    // means the template's termination argument was violated — a
    // generator bug worth pinning.
    const ExperimentJob job = resolveProgram(intake, engine.cache(), 0);
    const std::uint64_t bound = job.config.maxInstrs;

    CellResult cell;
    for (auto &outcome : engine.run(intakeJobs(job, kAllPredictorKinds))) {
        if (outcome.stats.dynInstrs >= bound)
            throw std::runtime_error(
                "did not halt within the family instruction bound (" +
                std::to_string(bound) + ")");
        const auto violations = InvariantChecker::audit(
            outcome.stats, /*trackInfluence=*/true);
        if (!violations.empty()) {
            std::string msg = "DPG invariant violation:";
            for (const std::string &v : violations)
                msg += " [" + v + "]";
            throw std::runtime_error(msg);
        }
        cell.dynInstrs += outcome.stats.dynInstrs;
        cell.runs.push_back(std::move(outcome.stats));
    }
    return cell;
}

} // namespace

FuzzResult
runFuzzFarm(const FuzzOptions &options, std::ostream *progress)
{
    // Resolve the family roster up front (throws on unknown names).
    std::vector<const ScenarioFamily *> roster;
    if (options.families.empty()) {
        for (const ScenarioFamily &f : allFamilies())
            roster.push_back(&f);
    } else {
        for (const std::string &name : options.families)
            roster.push_back(&findFamily(name));
    }

    // One engine for the whole sweep: per-program groups coalesce
    // into one fused pass across the predictor lanes, and captures
    // are released as each group completes.
    EngineOptions opts;
    opts.verify = options.verify;
    ExperimentEngine engine(opts);

    FuzzResult result;
    struct FamilyTally
    {
        std::uint64_t ok = 0;
        std::uint64_t failed = 0;
        std::uint64_t dynInstrs = 0;
    };
    std::vector<FamilyTally> tallies(roster.size());

    auto runOne = [&](std::size_t famIdx, std::uint64_t seed) {
        const ScenarioFamily &family = *roster[famIdx];
        Intake intake;
        intake.kind = IntakeKind::Family;
        intake.name = family.name;
        intake.seed = seed;
        ++result.programs;
        try {
            CellResult cell = runCell(engine, intake);
            tallies[famIdx].dynInstrs += cell.dynInstrs;
            result.dynInstrs += cell.dynInstrs;
            result.fingerprints.push_back(
                fingerprintJson(intake.label(), seed, cell.runs));
            ++tallies[famIdx].ok;
        } catch (const std::exception &e) {
            ++tallies[famIdx].failed;
            result.failures.push_back(
                {family.name, seed, e.what()});
            if (progress) {
                *progress << "FAIL " << family.name << " seed "
                          << seed << ": " << e.what() << "\n";
            }
        }
    };

    if (options.slice) {
        // Round-robin by seed value: seed s exercises family
        // s % roster-size — ten seeds cover every family once-ish
        // at tier-1 smoke cost.
        for (std::uint64_t s = options.seedLo; s <= options.seedHi;
             ++s)
            runOne(static_cast<std::size_t>(s % roster.size()), s);
    } else {
        for (std::size_t f = 0; f < roster.size(); ++f) {
            for (std::uint64_t s = options.seedLo;
                 s <= options.seedHi; ++s)
                runOne(f, s);
        }
    }

    if (progress) {
        for (std::size_t f = 0; f < roster.size(); ++f) {
            const FamilyTally &t = tallies[f];
            if (t.ok + t.failed == 0)
                continue;
            *progress << "family " << roster[f]->name << ": "
                      << t.ok << " ok, " << t.failed << " failed, "
                      << t.dynInstrs
                      << " dynamic instructions analyzed\n";
        }
    }

    result.corpus = corpusJson(result.fingerprints);
    return result;
}

} // namespace ppm::verify
