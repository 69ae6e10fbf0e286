/**
 * @file
 * Pass tests: N predictor cells sharing one (program, input, budget)
 * key run as lanes of a single pass (runner/fused_sink.hh) and must
 * stay byte-identical to the serial runModel reference. Also pins the
 * coalescing rules — different budgets never coalesce, a RunCache hit
 * on the group's key skips no lane — the stage-timing attribution
 * (shared stream cost counted once, on lane 0) and the sink's stream
 * accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/fused_sink.hh"
#include "runner/run_cache.hh"
#include "runner/stage_report.hh"
#include "sim/machine.hh"
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
cellConfig(PredictorKind kind, std::uint64_t budget = kBudget)
{
    ExperimentConfig config;
    config.maxInstrs = budget;
    config.dpg.kind = kind;
    return config;
}

const std::vector<PredictorKind> &
allKinds()
{
    static const std::vector<PredictorKind> kinds(
        std::begin(kAllPredictorKinds), std::end(kAllPredictorKinds));
    return kinds;
}

/** One lane config per predictor kind. */
std::vector<DpgConfig>
laneConfigs(bool partialStream = false)
{
    std::vector<DpgConfig> configs;
    for (PredictorKind kind : allKinds()) {
        DpgConfig cfg;
        cfg.kind = kind;
        cfg.partialStream = partialStream;
        configs.push_back(cfg);
    }
    return configs;
}

// The sink itself, fed by a live simulation: Machine::run delivers
// one instruction at a time, so this exercises the internal
// 256-instruction staging path. Every lane must match its serial
// reference bit for bit.
TEST(FusedSink, SimulatorFeedsEveryLaneThroughStaging)
{
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);

    ExecProfile profile(prog.textSize());
    {
        Machine m(prog, input);
        m.run(&profile, kBudget);
    }

    FusedAnalysisSink sink(prog, profile, laneConfigs());
    {
        Machine m(prog, input);
        m.run(&sink, kBudget);
    }

    ASSERT_EQ(sink.laneCount(), allKinds().size());
    for (std::size_t i = 0; i < allKinds().size(); ++i) {
        EXPECT_EQ(fingerprint(sink.takeStats(i)),
                  fingerprint(referenceStats(
                      w, cellConfig(allKinds()[i]))))
            << "lane " << i;
    }
}

/** Pass 1 plus a recording of the stream, for driving a sink by hand. */
class RecordSink : public TraceSink
{
  public:
    explicit RecordSink(const Program &prog) : profile(prog.textSize())
    {
    }

    void
    onInstr(const DynInstr &di) override
    {
        profile.onInstr(di);
        stream.push_back(di);
    }

    ExecProfile profile;
    std::vector<DynInstr> stream;
};

// Stream accounting: a lane that analyzed a different number of
// instructions than the sink delivered fails loudly at takeStats.
// Sampled (partial-stream) lanes pass the analyzer's own profile
// check here, so only the sink's count can catch the extra block.
TEST(FusedSink, TakeStatsThrowsWhenALaneSawAnotherStream)
{
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);
    RecordSink rec(prog);
    Machine(prog, w.makeInput(kDefaultWorkloadSeed))
        .run(&rec, 2 * kBudget);

    FusedAnalysisSink sink(prog, rec.profile,
                           laneConfigs(/*partialStream=*/true));
    for (std::size_t i = 0; i < kBudget; ++i)
        sink.onInstr(rec.stream[i]);
    sink.onRunEnd();
    ASSERT_EQ(sink.delivered(), kBudget);

    // Lane 0 alone sees one more block than the sink delivered.
    sink.lane(0).onBlock(std::span<const DynInstr>(
        rec.stream.data() + kBudget, FusedAnalysisSink::kStageBlock));
    EXPECT_THROW(sink.takeStats(0), std::runtime_error);
    for (std::size_t i = 1; i < allKinds().size(); ++i)
        EXPECT_EQ(sink.takeStats(i).dynInstrs, kBudget) << "lane " << i;
}

// Coalescing rule: cells with different instruction budgets have
// different CaptureKeys and must never share a pass — a lane
// analyzing a longer stream than its budget would be wrong.
TEST(FusedEngine, DifferentBudgetsDoNotCoalesce)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    const std::vector<std::uint64_t> budgets = {20'000, 30'000,
                                                40'000};
    std::vector<ExperimentJob> jobs;
    for (std::uint64_t b : budgets)
        jobs.push_back(engine.makeJob(
            w, cellConfig(PredictorKind::LastValue, b)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), budgets.size());
    for (std::size_t i = 0; i < budgets.size(); ++i) {
        EXPECT_EQ(outcomes[i].timing.lanes, 1u) << "cell " << i;
        EXPECT_FALSE(outcomes[i].timing.captureShared)
            << "cell " << i;
        EXPECT_LE(outcomes[i].stats.dynInstrs, budgets[i])
            << "cell " << i;
        EXPECT_EQ(
            fingerprint(outcomes[i].stats),
            fingerprint(referenceStats(
                w, cellConfig(PredictorKind::LastValue, budgets[i]))))
            << "cell " << i;
    }
    // One capture per distinct budget, no sharing.
    EXPECT_EQ(engine.cache().counters().captureMisses,
              budgets.size());
    EXPECT_EQ(engine.cache().counters().captureHits, 0u);
}

// Mixed batch: same-budget cells coalesce, the odd budget stays a
// pass of its own, and results land in submission order.
TEST(FusedEngine, MixedBudgetsSplitIntoCorrectGroups)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("li");
    std::vector<ExperimentJob> jobs;
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::LastValue, kBudget)));
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::Context, kBudget)));
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::Stride2Delta, 30'000)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].timing.lanes, 2u);
    EXPECT_EQ(outcomes[1].timing.lanes, 2u);
    EXPECT_EQ(outcomes[1].timing.laneIndex, 1u);
    EXPECT_EQ(outcomes[2].timing.lanes, 1u);
    EXPECT_EQ(
        fingerprint(outcomes[0].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::LastValue, kBudget))));
    EXPECT_EQ(
        fingerprint(outcomes[1].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::Context, kBudget))));
    EXPECT_EQ(
        fingerprint(outcomes[2].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::Stride2Delta, 30'000))));
}

// Coalescing rule: a RunCache hit on the group's key must not skip
// any lane. Pre-warm the capture through the cache, then run the
// matrix — the pass reuses the capture (one hit, no new simulation)
// yet every lane still produces its full statistics.
TEST(FusedEngine, RunCacheHitSkipsNoLane)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : allKinds())
        jobs.push_back(engine.makeJob(w, cellConfig(kind)));

    // Seed the capture cache with the group's key, exactly as the
    // engine would compute it.
    const ExperimentJob &lead = jobs.front();
    const CaptureKey key{lead.program.get(), hashInput(*lead.input),
                         lead.config.maxInstrs};
    engine.cache().capture(key, [&]() -> CaptureResult {
        CaptureResult r;
        r.profile =
            std::make_unique<ExecProfile>(lead.program->textSize());
        Machine m(*lead.program, *lead.input);
        m.run(r.profile.get(), lead.config.maxInstrs);
        r.dynInstrs = r.profile->total();
        return r;
    });
    ASSERT_EQ(engine.cache().counters().captureMisses, 1u);

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), allKinds().size());
    // The pass hit the pre-warmed capture: no second simulation.
    EXPECT_EQ(engine.cache().counters().captureMisses, 1u);
    EXPECT_EQ(engine.cache().counters().captureHits, 1u);
    EXPECT_TRUE(outcomes[0].timing.captureShared);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].timing.lanes, allKinds().size())
            << "cell " << i;
        EXPECT_EQ(fingerprint(outcomes[i].stats),
                  fingerprint(referenceStats(
                      w, cellConfig(allKinds()[i]))))
            << "cell " << i;
    }
}

// Stage-timing attribution: per-lane analyze time is separate from
// the shared stream cost, which lane 0 carries exactly once.
TEST(FusedEngine, SharedStageTimingCountedOnce)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);

    engine.run(engine.workloadMatrix({findWorkload("compress")},
                                     allKinds(),
                                     cellConfig(allKinds()[0])));

    const auto history = engine.history();
    ASSERT_EQ(history.size(), allKinds().size());
    for (std::size_t i = 0; i < history.size(); ++i) {
        const StageTiming &t = history[i].timing;
        EXPECT_EQ(t.lanes, allKinds().size()) << "cell " << i;
        EXPECT_EQ(t.laneIndex, i) << "cell " << i;
        if (i > 0) {
            EXPECT_EQ(t.dispatchSec, 0.0)
                << "shared cost leaked to lane " << i;
        }
        EXPECT_GE(t.analyzeSec, 0.0);
    }

    std::ostringstream json;
    writeBenchJson(json, engine);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"shared_stages\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"passes\":1}"), std::string::npos);
    EXPECT_NE(doc.find("\"lanes\":3"), std::string::npos);
}

} // namespace
} // namespace ppm
