/**
 * @file
 * Experiment-engine tests: the parallel engine must be bit-identical
 * to the serial two-pass reference (runModel), pass-1 profiles must be
 * shared across predictor configs, and results must come back in
 * submission order.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/run_cache.hh"
#include "runner/stage_report.hh"
#include "support/env.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

constexpr std::uint64_t kBudget = 60'000;

/** Collapse every counter a run produces into one comparable string. */
std::string
fingerprint(const DpgStats &s)
{
    std::ostringstream os;
    os << toJson(s);
    os << "|seq=" << s.sequences.instructionsInSequences();
    os << "|trees=" << s.trees.generateCount();
    os << "|lazy=" << s.lazyDataNodes << "," << s.inputDataNodes;
    os << "|combo=";
    for (std::uint64_t v : s.paths.perCombo)
        os << v << ",";
    os << "|sat=" << s.paths.saturationEvents;
    return os.str();
}

/** The serial two-pass reference for one workload cell. */
DpgStats
referenceStats(const Workload &w, const ExperimentConfig &config)
{
    const Program prog = assemble(std::string(w.source), w.name);
    return runModel(prog, w.makeInput(kDefaultWorkloadSeed), config);
}

ExperimentConfig
cellConfig(PredictorKind kind)
{
    ExperimentConfig config;
    config.maxInstrs = kBudget;
    config.dpg.kind = kind;
    return config;
}

/** Records the full DynInstr stream for field-level comparison. */
class StreamRecorder : public TraceSink
{
  public:
    struct Entry
    {
        DynInstr di;
    };

    void
    onInstr(const DynInstr &di) override
    {
        entries.push_back({di});
    }

    void
    onRunEnd() override
    {
        ++runEnds;
    }

    std::vector<Entry> entries;
    int runEnds = 0;
};

void
expectSameStream(const StreamRecorder &a, const StreamRecorder &b)
{
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        const DynInstr &x = a.entries[i].di;
        const DynInstr &y = b.entries[i].di;
        ASSERT_EQ(x.seq, y.seq) << "at record " << i;
        ASSERT_EQ(x.pc, y.pc) << "at record " << i;
        ASSERT_EQ(x.instr, y.instr) << "at record " << i;
        ASSERT_EQ(x.numInputs, y.numInputs) << "at record " << i;
        for (unsigned k = 0; k < x.numInputs; ++k) {
            ASSERT_EQ(x.inputs[k].kind, y.inputs[k].kind);
            ASSERT_EQ(x.inputs[k].value, y.inputs[k].value);
            ASSERT_EQ(x.inputs[k].reg, y.inputs[k].reg);
            ASSERT_EQ(x.inputs[k].addr, y.inputs[k].addr);
        }
        ASSERT_EQ(x.hasRegOutput, y.hasRegOutput);
        ASSERT_EQ(x.outReg, y.outReg);
        ASSERT_EQ(x.hasMemOutput, y.hasMemOutput);
        ASSERT_EQ(x.outAddr, y.outAddr);
        ASSERT_EQ(x.outValue, y.outValue);
        ASSERT_EQ(x.outputIsData, y.outputIsData);
        ASSERT_EQ(x.isPassThrough, y.isPassThrough);
        ASSERT_EQ(x.passSlot, y.passSlot);
        ASSERT_EQ(x.isBranch, y.isBranch);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.isJump, y.isJump);
    }
}

TEST(TeeSink, FansOutToEverySink)
{
    const Program prog = assemble("li $4, 7\nnop\nhalt\n", "tee");
    StreamRecorder a, b;
    TeeSink tee({&a, &b});
    Machine m(prog);
    m.run(&tee, 100);
    EXPECT_EQ(a.entries.size(), 3u);
    EXPECT_EQ(a.runEnds, 1);
    EXPECT_EQ(b.runEnds, 1);
    expectSameStream(a, b);
}

// The determinism contract: parallel scheduling with shared pass-1
// profiles is bit-identical to the serial two-pass reference, across
// workloads (incl. FP) and every predictor kind.
TEST(ExperimentEngine, ParallelReplayMatchesSerialReference)
{
    const std::vector<const char *> names = {"compress", "gcc",
                                             "swim"};

    EngineOptions opts;
    opts.threads = 3;
    ExperimentEngine engine(opts);

    std::vector<ExperimentJob> jobs;
    for (const char *name : names)
        for (PredictorKind kind : kAllPredictorKinds)
            jobs.push_back(
                engine.makeJob(findWorkload(name), cellConfig(kind)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), names.size() * 3);

    std::size_t i = 0;
    for (const char *name : names) {
        for (PredictorKind kind : kAllPredictorKinds) {
            const DpgStats ref =
                referenceStats(findWorkload(name), cellConfig(kind));
            EXPECT_EQ(fingerprint(outcomes[i].stats),
                      fingerprint(ref))
                << name << " cell " << i;
            ++i;
        }
    }
}

TEST(ExperimentEngine, CaptureSharedAcrossPredictorConfigs)
{
    EngineOptions opts;
    opts.threads = 1;  // Serialize so hit accounting is exact.
    ExperimentEngine engine(opts);

    const auto outcomes = engine.run(engine.workloadMatrix(
        {findWorkload("compress")},
        {PredictorKind::LastValue, PredictorKind::Stride2Delta,
         PredictorKind::Context},
        cellConfig(PredictorKind::Context)));

    ASSERT_EQ(outcomes.size(), 3u);
    // One pass: lane 0 ran the profile, the other lanes share it.
    EXPECT_FALSE(outcomes[0].timing.captureShared);
    EXPECT_TRUE(outcomes[1].timing.captureShared);
    EXPECT_TRUE(outcomes[2].timing.captureShared);

    // One capture lookup per pass, not per cell.
    const auto counters = engine.cache().counters();
    EXPECT_EQ(counters.captureMisses, 1u);
    EXPECT_EQ(counters.captureHits, 0u);
    // One workload, three cells: assembled exactly once.
    EXPECT_EQ(counters.programMisses, 1u);
    EXPECT_EQ(counters.programHits, 2u);
}

TEST(ExperimentEngine, ResultsComeBackInSubmissionOrder)
{
    EngineOptions opts;
    opts.threads = 4;
    ExperimentEngine engine(opts);

    const std::vector<const char *> names = {"li", "go", "compress",
                                             "m88ksim"};
    std::vector<ExperimentJob> jobs;
    for (const char *name : names)
        jobs.push_back(engine.makeJob(
            findWorkload(name),
            cellConfig(PredictorKind::LastValue)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(outcomes[i].stats.workload, names[i]);
}

// Regression for the capture-release bookkeeping: with one distinct
// capture key per job (here, distinct instruction budgets), the old
// per-key hash map could rehash while workers held references into
// it. The vector-of-groups layout must hand every worker a stable
// index no matter how many keys the batch creates — results must
// still be bit-identical to the serial reference and come back in
// submission order.
TEST(ExperimentEngine, ManyDistinctCaptureKeysStayStable)
{
    EngineOptions opts;
    opts.threads = 4;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    constexpr std::size_t kJobs = 32;
    std::vector<ExperimentJob> jobs;
    std::vector<ExperimentConfig> configs;
    for (std::size_t i = 0; i < kJobs; ++i) {
        ExperimentConfig config =
            cellConfig(PredictorKind::LastValue);
        config.maxInstrs = 2000 + 97 * i;  // Distinct capture key.
        configs.push_back(config);
        jobs.push_back(engine.makeJob(w, config));
    }

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), kJobs);
    // Every key was its own group: no capture sharing anywhere.
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_FALSE(outcomes[i].timing.captureShared)
            << "job " << i;
    // Spot-check full fingerprints at the ends and middle; budgets in
    // between must at least be honored in submission order.
    for (const std::size_t i : {std::size_t{0}, kJobs / 2, kJobs - 1})
        EXPECT_EQ(fingerprint(outcomes[i].stats),
                  fingerprint(referenceStats(w, configs[i])))
            << "job " << i;
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_LE(outcomes[i].stats.dynInstrs, configs[i].maxInstrs)
            << "job " << i;
}

TEST(ExperimentEngine, PpmThreadsEnvOverride)
{
    ASSERT_EQ(setenv("PPM_THREADS", "3", 1), 0);
    {
        ExperimentEngine engine;
        EXPECT_EQ(engine.threads(), 3u);
    }
    unsetenv("PPM_THREADS");

    // Explicit options beat the environment.
    ASSERT_EQ(setenv("PPM_THREADS", "7", 1), 0);
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    EXPECT_EQ(engine.threads(), 2u);
    unsetenv("PPM_THREADS");
}

// Malformed env values used to fall back silently (a typo in
// PPM_THREADS ran the sweep single-threaded with no hint); they must
// abort loudly, naming the offending variable.
TEST(ExperimentEngine, MalformedEnvFailsLoudly)
{
    for (const char *bad : {"garbage", "3x", "-2", ""}) {
        if (*bad == '\0')
            continue;  // Empty means unset: falls back, no error.
        ASSERT_EQ(setenv("PPM_THREADS", bad, 1), 0);
        try {
            ExperimentEngine engine;
            FAIL() << "PPM_THREADS=" << bad << " did not throw";
        } catch (const EnvError &e) {
            EXPECT_NE(std::string(e.what()).find("PPM_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
    unsetenv("PPM_THREADS");

    ASSERT_EQ(setenv("PPM_THREADS", "0", 1), 0);
    EXPECT_THROW(ExperimentEngine{}, EnvError);  // Below min (1).
    unsetenv("PPM_THREADS");

    ASSERT_EQ(setenv("PPM_VERIFY", "maybe", 1), 0);
    EXPECT_THROW(ExperimentEngine{}, EnvError);
    unsetenv("PPM_VERIFY");
}

TEST(RunCache, HashCollisionReturnsRightProgram)
{
    RunCache cache;
    // Force every source to the same 64-bit key: any second distinct
    // source is now a guaranteed collision for the same name.
    cache.setSourceHashForTesting(
        [](std::string_view) { return std::uint64_t{42}; });

    const auto a = cache.program("w", "li $4, 1\nhalt\n");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->textSize(), 2u);

    // Same name, different source, same hash: before the fix this
    // returned program `a` (2 instructions) for a 3-instruction
    // source.
    const auto b = cache.program("w", "li $4, 1\nnop\nhalt\n");
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(b->textSize(), 3u);

    // A true re-request of the first source still hits.
    const auto a2 = cache.program("w", "li $4, 1\nhalt\n");
    EXPECT_EQ(a.get(), a2.get());

    const auto counters = cache.counters();
    EXPECT_EQ(counters.programMisses, 1u);
    EXPECT_EQ(counters.programCollisions, 1u);
    EXPECT_EQ(counters.programHits, 1u);
}

TEST(ExperimentEngine, StageReportCarriesSchemaAndTotals)
{
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    engine.run(engine.workloadMatrix(
        {findWorkload("compress")},
        {PredictorKind::LastValue, PredictorKind::Context},
        cellConfig(PredictorKind::Context)));

    std::ostringstream json;
    writeBenchJson(json, engine);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"ppm-bench-timing-v3\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"compress\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"totals\":{\"runs\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"simulations\":1"), std::string::npos);

    std::ostringstream summary;
    printStageSummary(summary, engine);
    EXPECT_NE(summary.str().find("2 runs"), std::string::npos);
}

TEST(RunCache, HashInputSeparatesStreams)
{
    const Workload &w = findWorkload("compress");
    const auto a = w.makeInput(1);
    const auto b = w.makeInput(2);
    EXPECT_NE(hashInput(a), hashInput(b));
    EXPECT_EQ(hashInput(a), hashInput(w.makeInput(1)));
    EXPECT_NE(hashInput({}), hashInput({0}));
}

TEST(RunCache, RetainedHitPromotesCaptureOutOfRetentionTier)
{
    // A hit on a retained capture puts it back in flight: it must
    // leave the retention tier entirely (bytes, LRU slot, retained
    // entry), or a concurrent eviction scan can tear down the
    // in-flight capture — forcing a recompute and double-counting
    // capture_evictions against undercounted retained bytes.
    RunCache cache;
    // Each entry is charged its profile's bytes (8 per static
    // instruction): a 512-instruction profile exactly fills the
    // budget and any second retained entry forces an eviction — fully
    // deterministic.
    cache.setRetentionBytes(4096);
    auto compute = [] {
        CaptureResult r;
        r.profile = std::make_unique<ExecProfile>(512);
        return r;
    };
    int dummyA = 0;
    int dummyB = 0; // Never dereferenced: keys carry identity only.
    const CaptureKey k1{reinterpret_cast<const Program *>(&dummyA), 1,
                        100};
    const CaptureKey k2{reinterpret_cast<const Program *>(&dummyB), 2,
                        100};

    (void)cache.capture(k1, compute); // miss
    cache.release(k1);
    EXPECT_EQ(cache.retainedBytes(), 4096u);

    // Back in flight: the retention tier must no longer account it.
    const RunCache::CaptureRef ref1 = cache.capture(k1, compute);
    EXPECT_TRUE(ref1.hit);
    EXPECT_EQ(cache.retainedBytes(), 0u);

    // A second key retires while k1 is in flight; it fits the budget
    // alone, so nothing may be evicted — before the fix k1 was still
    // on the LRU and this evicted the in-flight capture.
    (void)cache.capture(k2, compute); // miss
    cache.release(k2);
    EXPECT_EQ(cache.retainedBytes(), 4096u);
    EXPECT_EQ(cache.counters().captureEvictions, 0u);

    // Still cached: re-requesting k1 must not recompute.
    const RunCache::CaptureRef ref2 = cache.capture(k1, compute);
    EXPECT_TRUE(ref2.hit);

    // Final release re-retains k1; now two entries exceed the budget
    // and exactly one eviction (the older k2) is counted.
    cache.release(k1);
    EXPECT_EQ(cache.retainedBytes(), 4096u);

    const RunCache::Counters c = cache.counters();
    EXPECT_EQ(c.captureMisses, 2u);
    EXPECT_EQ(c.captureHits, 2u);
    EXPECT_EQ(c.captureEvictions, 1u);
}

TEST(RunCache, RetentionAccountingSurvivesConcurrentHammer)
{
    // 8 client threads hammer an engine whose retention budget is
    // below a single profile, so every release triggers an eviction
    // scan while other threads hold hits on the same keys. Outcomes
    // must stay byte-identical and the byte accounting must come back
    // exact once the engine drains.
    EngineOptions opts;
    opts.threads = 4;
    opts.captureRetentionBytes = 1;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("compress");

    constexpr unsigned kClients = 8;
    constexpr unsigned kRounds = 4;
    constexpr std::uint64_t budgets[] = {5'000, 10'000, 15'000};

    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::string>> fps;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (unsigned r = 0; r < kRounds; ++r) {
                const std::uint64_t budget =
                    budgets[(c + r) % std::size(budgets)];
                ExperimentConfig config;
                config.maxInstrs = budget;
                config.dpg.kind = PredictorKind::Context;
                RequestHandle h =
                    engine.submit(engine.makeJob(w, config));
                const std::string fp = fingerprint(h.wait().stats);
                std::lock_guard<std::mutex> lock(mu);
                fps.emplace_back(budget, fp);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    ASSERT_EQ(fps.size(), kClients * kRounds);

    // Correctness under eviction churn: every outcome matches the
    // serial reference for its budget.
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);
    for (const std::uint64_t budget : budgets) {
        ExperimentConfig config;
        config.maxInstrs = budget;
        config.dpg.kind = PredictorKind::Context;
        const std::string ref =
            fingerprint(runModel(prog, input, config));
        for (const auto &[b, fp] : fps) {
            if (b == budget) {
                EXPECT_EQ(fp, ref) << "budget=" << budget;
            }
        }
    }

    // Every profile outweighs the 1-byte budget, so a drained cache
    // retains nothing — any residue is exactly the double-count /
    // undercount drift the promote-on-hit fix closes (a u64
    // underflow would show up as an astronomically large value).
    EXPECT_EQ(engine.cache().retainedBytes(), 0u);
    const RunCache::Counters c = engine.cache().counters();
    EXPECT_LE(c.captureEvictions, c.captureMisses);
    EXPECT_GE(c.captureEvictions, std::size(budgets));
}

} // namespace
} // namespace ppm
