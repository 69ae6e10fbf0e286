/**
 * @file
 * The workload fuzzing farm: sweep seed ranges through the scenario
 * families (verify/families.hh), run every generated program through
 * the experiment engine with full differential verification on (oracle
 * predictors in lockstep + DPG invariant audit), and collect one
 * predictability fingerprint per program into a corpus document.
 *
 * A run fails — and is reported per (family, seed), so it can be
 * promoted to a pinned `fuzz_regress_<seed>` ctest — when the program
 * does not assemble, does not halt within the family's structural
 * instruction bound, diverges from the oracles, or violates a DPG
 * conservation law. The farm is an intake path next to the
 * hand-written workloads and imported branch traces, and the repo's
 * first statistical harness: every predictor change gets hundreds of
 * adversarial programs for free. Driven by `ppm fuzz` (tools/) and
 * the fuzz_smoke / fuzz_sweep ctests.
 */

#ifndef PPM_VERIFY_FUZZ_FARM_HH
#define PPM_VERIFY_FUZZ_FARM_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ppm::verify {

/** One farm sweep configuration. */
struct FuzzOptions
{
    /** Families to sweep; empty = all registered families. */
    std::vector<std::string> families;

    /** Inclusive seed range swept per family. */
    std::uint64_t seedLo = 1;
    std::uint64_t seedHi = 10;

    /**
     * Slice mode: instead of the full families x seeds cross product,
     * run each seed against one family, round-robin by seed — the
     * cheap tier-1 smoke shape (10 seeds = 10 programs).
     */
    bool slice = false;

    /**
     * Differential verification per run (oracle lockstep + invariant
     * audit). On by default — the farm's whole point; switchable off
     * for quick corpus-only sweeps.
     */
    bool verify = true;
};

/** One failed (family, seed) cell. */
struct FuzzFailure
{
    std::string family;
    std::uint64_t seed = 0;
    std::string message;
};

/** Outcome of one sweep. */
struct FuzzResult
{
    /** Programs attempted (= fingerprints + failures). */
    std::uint64_t programs = 0;

    /** Dynamic instructions analyzed, summed over every lane. */
    std::uint64_t dynInstrs = 0;

    /** One ppm-fingerprint-v1 JSON object per passing program. */
    std::vector<std::string> fingerprints;

    std::vector<FuzzFailure> failures;

    /** The full ppm-fuzz-corpus-v1 document. */
    std::string corpus;
};

/**
 * Run the sweep. @p progress, when non-null, receives one line per
 * family summarizing its runs (and one line per failure, as they
 * happen). Throws std::out_of_range on an unknown family name;
 * individual run failures never throw — they are returned.
 */
FuzzResult runFuzzFarm(const FuzzOptions &options,
                       std::ostream *progress = nullptr);

} // namespace ppm::verify

#endif // PPM_VERIFY_FUZZ_FARM_HH
