/**
 * @file
 * Fingerprint schema, corpus validator, fuzz-farm, and external
 * trace-importer tests. The schema validator is exercised both
 * positively (every farm- and importer-produced document must
 * validate) and negatively (hand-corrupted documents must be
 * rejected with specific messages) — so the corpus a CI sweep
 * uploads is trustworthy by construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "isa/registers.hh"
#include "runner/trace_import.hh"
#include "sim/profiler.hh"
#include "support/mini_json.hh"
#include "support/rng.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"
#include "verify/fuzz_farm.hh"
#include "verify/invariant_checker.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

/** One program's three-predictor stats, via the serial model path. */
std::vector<DpgStats>
statsFor(const Program &prog)
{
    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentConfig config;
        config.dpg.kind = kind;
        runs.push_back(runModel(prog, {}, config));
    }
    return runs;
}

TEST(Fingerprint, RealRunValidates)
{
    const auto &family = verify::findFamily("hash-churn");
    const Program prog =
        assemble(family.generate(3), "hash-churn-3");
    const std::string fp =
        verify::fingerprintJson("family:hash-churn", 3,
                                statsFor(prog));

    const JsonValue doc = parseJson(fp);
    EXPECT_TRUE(verify::validateFingerprint(doc).empty())
        << ::testing::PrintToString(
               verify::validateFingerprint(doc));

    // Canonical form: re-rendering the same stats is byte-identical.
    EXPECT_EQ(fp, verify::fingerprintJson("family:hash-churn", 3,
                                          statsFor(prog)));

    // Spot-check the shape the validator asserts.
    EXPECT_EQ(doc.at("predictors").array.size(), 3u);
    EXPECT_EQ(doc.at("predictors").array[0].at("predictor").str,
              "L");
}

TEST(Fingerprint, ValidatorRejectsCorruption)
{
    const auto &family = verify::findFamily("stream-stride");
    const Program prog =
        assemble(family.generate(5), "stream-stride-5");
    const std::string fp = verify::fingerprintJson(
        "family:stream-stride", 5, statsFor(prog));

    // Wrong schema tag.
    {
        std::string bad = fp;
        bad.replace(bad.find("ppm-fingerprint-v1"),
                    std::string("ppm-fingerprint-v1").size(),
                    "ppm-fingerprint-v9");
        const auto errors =
            verify::validateFingerprint(parseJson(bad));
        ASSERT_FALSE(errors.empty());
        EXPECT_NE(errors.front().find("schema"), std::string::npos);
    }
    // Percentage out of range.
    {
        std::string bad = fp;
        const auto pos = bad.find("\"node_gen_pct\":");
        ASSERT_NE(pos, std::string::npos);
        bad.replace(pos, std::string("\"node_gen_pct\":").size(),
                    "\"node_gen_pct\":999,\"x\":");
        EXPECT_FALSE(
            verify::validateFingerprint(parseJson(bad)).empty());
    }
    // Arc-mix cells no longer summing to the arc total.
    {
        std::string bad = fp;
        const auto pos = bad.find("\"arcs\":");
        ASSERT_NE(pos, std::string::npos);
        bad.replace(pos, std::string("\"arcs\":").size(),
                    "\"arcs\":1,\"arcs_was\":");
        const auto errors =
            verify::validateFingerprint(parseJson(bad));
        ASSERT_FALSE(errors.empty());
        EXPECT_NE(errors.front().find("arc_mix"), std::string::npos);
    }
    // Not even an object.
    EXPECT_FALSE(
        verify::validateFingerprint(parseJson("[1,2]")).empty());
}

TEST(Fingerprint, CorpusWrapsAndValidates)
{
    const auto &family = verify::findFamily("pointer-chase");
    const Program prog =
        assemble(family.generate(2), "pointer-chase-2");
    const std::string fp = verify::fingerprintJson(
        "family:pointer-chase", 2, statsFor(prog));

    const std::string corpus = verify::corpusJson({fp, fp});
    const JsonValue doc = parseJson(corpus);
    EXPECT_TRUE(verify::validateCorpus(doc).empty())
        << ::testing::PrintToString(verify::validateCorpus(doc));
    EXPECT_EQ(doc.at("programs").array.size(), 2u);

    // A corpus holding one corrupted program names its index.
    std::string bad = fp;
    bad.replace(bad.find("ppm-fingerprint-v1"),
                std::string("ppm-fingerprint-v1").size(),
                "ppm-fingerprint-v9");
    const auto errors =
        verify::validateCorpus(parseJson(verify::corpusJson({fp, bad})));
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find("programs[1]"), std::string::npos);
}

// A source name is escaped, not filtered: a control byte survives the
// round trip and keeps two differently named traces apart.
TEST(Fingerprint, SourceKeepsControlBytes)
{
    const std::vector<DpgStats> runs(1);
    const std::string name = "trace:a\x01" "b.trace";
    const std::string fp = verify::fingerprintJson(name, 0, runs);
    EXPECT_NE(fp.find("\"source\":\"trace:a\\u0001b.trace\""),
              std::string::npos)
        << fp;
    EXPECT_EQ(parseJson(fp).at("source").str, name);
    EXPECT_NE(fp, verify::fingerprintJson("trace:ab.trace", 0, runs));
}

TEST(FuzzFarm, SliceSweepProducesValidCorpus)
{
    verify::FuzzOptions options;
    options.seedLo = 1;
    options.seedHi = 10;
    options.slice = true;
    std::ostringstream progress;
    const verify::FuzzResult result =
        verify::runFuzzFarm(options, &progress);

    EXPECT_EQ(result.programs, 10u);
    EXPECT_TRUE(result.failures.empty())
        << progress.str();
    EXPECT_EQ(result.fingerprints.size(), 10u);
    EXPECT_GT(result.dynInstrs, 0u);
    EXPECT_TRUE(
        verify::validateCorpus(parseJson(result.corpus)).empty());
}

TEST(FuzzFarm, UnknownFamilyThrows)
{
    verify::FuzzOptions options;
    options.families = {"no-such-family"};
    EXPECT_THROW(verify::runFuzzFarm(options), std::out_of_range);
}

// --- external trace intake ------------------------------------------

constexpr const char *kSampleTrace =
    "# comment line\n"
    "0x400100 T\n"
    "400200 0\n"
    "0x400100 T 0x400140\n"
    "400200 1\n"
    "0x400100 N\n";

TEST(TraceImport, ParsesRecordsAndDedupsPcs)
{
    std::istringstream in(kSampleTrace);
    const ImportedTrace trace = parseBranchTrace(in, "sample");
    EXPECT_EQ(trace.stream.size(), 5u);
    EXPECT_EQ(trace.staticBranches(), 2u);
    // First-appearance dense ids.
    EXPECT_EQ(trace.stream[0], 0u);
    EXPECT_EQ(trace.stream[1], 1u);
    EXPECT_EQ(trace.stream[2], 0u);
    const std::vector<bool> want = {true, false, true, true, false};
    EXPECT_EQ(trace.taken, want);
}

TEST(TraceImport, RejectsMalformedRecords)
{
    const char *kBad[] = {
        "",                    // empty trace
        "nonsense-pc T\n",     // bad pc
        "0x400100\n",          // missing outcome
        "0x400100 X\n",        // bad outcome letter
        "-0x400100 T\n",       // signed pc
        "+400100 T\n",         // signed pc
    };
    for (const char *text : kBad) {
        std::istringstream in(text);
        EXPECT_THROW(parseBranchTrace(in, "bad"),
                     std::runtime_error)
            << text;
    }

    // A signed pc is named with its line number.
    std::istringstream in("400100 T\n-400200 T\n");
    try {
        parseBranchTrace(in, "bad");
        ADD_FAILURE() << "signed pc accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad:2:"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Round trip: an imported branch stream must flow through the same
 * two-pass analyzer discipline as simulated programs and come out as
 * a schema-valid fingerprint with exact branch accounting.
 */
TEST(TraceImport, RoundTripsToFingerprintSchema)
{
    // An alternating branch and an always-taken branch, repeated:
    // any history-based branch predictor should converge on both.
    std::string text;
    for (int i = 0; i < 200; ++i) {
        text += (i % 2) ? "0x1000 T\n" : "0x1000 N\n";
        text += "0x2000 T\n";
    }
    std::istringstream in(text);
    const ImportedTrace trace = parseBranchTrace(in, "alt");
    ASSERT_EQ(trace.stream.size(), 400u);

    ExecProfile profile(trace.program.textSize());
    replayImported(trace, profile);
    EXPECT_EQ(profile.total(), 400u);

    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        DpgConfig config;
        config.kind = kind;
        config.verify = true; // oracle lockstep on the import path
        DpgAnalyzer analyzer(trace.program, profile, config);
        replayImported(trace, analyzer);
        DpgStats stats = analyzer.takeStats();
        EXPECT_EQ(stats.dynInstrs, 400u);
        // Both branches become predictable once gshare warms up.
        EXPECT_GT(stats.gshareAccuracy, 0.9);
        EXPECT_TRUE(verify::InvariantChecker::audit(
                        stats, config.trackInfluence)
                        .empty());
        runs.push_back(std::move(stats));
    }

    const std::string fp =
        verify::fingerprintJson("trace:alt", 0, runs);
    EXPECT_TRUE(verify::validateFingerprint(parseJson(fp)).empty())
        << fp;
}

/**
 * @p prog with r1-r63 renamed by a seeded shuffle. r0 (hardwired
 * zero), $sp (preset by the machine) and $ra (written by jal) keep
 * their numbers.
 */
Program
renameRegisters(Program prog, std::uint64_t seed)
{
    std::vector<RegIndex> movable;
    for (unsigned r = 1; r < kNumRegs; ++r) {
        if (r != kSpReg && r != kRaReg)
            movable.push_back(static_cast<RegIndex>(r));
    }
    std::vector<RegIndex> shuffled = movable;
    Rng rng(seed);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.nextBelow(i + 1)]);

    std::array<RegIndex, kNumRegs> to{};
    std::iota(to.begin(), to.end(), RegIndex{0});
    for (std::size_t i = 0; i < movable.size(); ++i)
        to[movable[i]] = shuffled[i];
    for (Instruction &in : prog.text) {
        in.rd = to[in.rd];
        in.rs1 = to[in.rs1];
        in.rs2 = to[in.rs2];
    }
    return prog;
}

/** Three-predictor fingerprint of @p prog over a short budget. */
std::string
shortFingerprint(const Program &prog, const std::vector<Value> &input)
{
    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentConfig config;
        config.maxInstrs = 20'000;
        config.dpg.kind = kind;
        runs.push_back(runModel(prog, input, config));
    }
    return verify::fingerprintJson("renamed", 0, runs);
}

// Metamorphic check: the model reads a register number only as a
// value-table index, so renaming registers consistently must not move
// a single byte of any fingerprint.
TEST(Fingerprint, RegisterRenamingLeavesEveryFingerprintUnchanged)
{
    auto check = [](const Program &prog,
                    const std::vector<Value> &input) {
        const Program renamed = renameRegisters(prog, 0x5eed);
        const auto sameRegs = [](const Instruction &a,
                                 const Instruction &b) {
            return a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2;
        };
        EXPECT_FALSE(std::equal(prog.text.begin(), prog.text.end(),
                                renamed.text.begin(), sameRegs))
            << prog.name << ": renaming moved no register";
        EXPECT_EQ(shortFingerprint(prog, input),
                  shortFingerprint(renamed, input))
            << prog.name;
    };
    for (const Workload &w : allWorkloads()) {
        check(assemble(std::string(w.source), w.name),
              w.makeInput(kDefaultWorkloadSeed));
    }
    for (const verify::ScenarioFamily &f : verify::allFamilies())
        check(assemble(f.generate(7), f.name), {});
}

} // namespace
} // namespace ppm
