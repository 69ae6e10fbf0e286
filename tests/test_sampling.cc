/**
 * @file
 * Phase-sampling subsystem tests (DESIGN.md Sec. 13): the paged
 * table's dirty-page/COW contract that checkpointing leans on,
 * dirty-page delta checkpoint restore determinism, interval
 * profiling and phase clustering invariants, PPM_SAMPLE parsing,
 * weighted-merge statistics algebra, and the end-to-end sampled
 * scheduler — deterministic across repeats and thread counts, exact
 * when sampling is off, and within figure tolerance of the full
 * model when on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/sampled_run.hh"
#include "sample/interval_profiler.hh"
#include "sample/phase_cluster.hh"
#include "sim/checkpoint.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "support/env.hh"
#include "support/paged_table.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

// --- support/paged_table dirty-page / COW contract ------------------

using Table = PagedTable<int>;

TEST(PagedTableDirty, AccountsPagesOncePerEpoch)
{
    Table t;
    t.setDirtyTracking(true);
    EXPECT_TRUE(t.dirtyTracking());

    // Slots 0..5 share one page (64 slots per page by default).
    for (std::uint64_t i = 0; i < 6; ++i)
        t.getOrCreate(i) = int(i);
    EXPECT_EQ(t.dirtyPageCount(), 1u);

    t.getOrCreate(Table::kSlotsPerPage) = 42; // second page
    EXPECT_EQ(t.dirtyPageCount(), 2u);
    t.getOrCreate(1) = 7; // still the first page
    EXPECT_EQ(t.dirtyPageCount(), 2u);

    // clearDirty opens a fresh epoch without touching page contents.
    t.clearDirty();
    EXPECT_EQ(t.dirtyPageCount(), 0u);
    EXPECT_EQ(t.getOrCreate(1), 7);
    EXPECT_EQ(t.dirtyPageCount(), 1u);

    // Turning tracking off also resets the set.
    t.setDirtyTracking(false);
    EXPECT_EQ(t.dirtyPageCount(), 0u);
}

TEST(PagedTableDirty, SlotRefsStableAcrossSnapshotAndRestore)
{
    Table t;
    t.setDirtyTracking(true);
    int &slot = t.getOrCreate(5);
    slot = 41;
    t.getOrCreate(6) = 17;

    // Snapshot the dirty page images (what CheckpointStore::capture
    // does), close the epoch.
    std::vector<std::uint64_t> pageNos;
    std::vector<int> words;
    t.forEachDirtyPage([&](std::uint64_t no, const int *slots) {
        pageNos.push_back(no);
        words.insert(words.end(), slots,
                     slots + Table::kSlotsPerPage);
    });
    t.clearDirty();
    ASSERT_EQ(pageNos.size(), 1u);

    // Pages never move: the pre-snapshot reference still aliases the
    // live slot, before and after a post-image restore.
    t.getOrCreate(5) = 99;
    EXPECT_EQ(slot, 99);
    t.writePage(pageNos[0], words.data());
    EXPECT_EQ(slot, 41);
    EXPECT_EQ(*t.find(6), 17);

    // The restore itself dirtied the page in the new epoch.
    EXPECT_EQ(t.dirtyPageCount(), 1u);
}

TEST(PagedTableDirty, OverflowDirectoryRoundTrips)
{
    // An index whose chunk number clears kMaxDirectChunks resolves
    // through the ordered-map overflow directory; dirty tracking and
    // page restore must behave identically there.
    constexpr std::uint64_t kWild =
        (Table::kMaxDirectChunks * Table::kPagesPerChunk + 3) *
            Table::kSlotsPerPage +
        11;
    Table t;
    t.setDirtyTracking(true);
    t.getOrCreate(kWild) = 1234;
    EXPECT_GT(t.overflowLookups(), 0u);
    EXPECT_EQ(t.dirtyPageCount(), 1u);

    std::vector<std::uint64_t> pageNos;
    std::vector<int> words;
    t.forEachDirtyPage([&](std::uint64_t no, const int *slots) {
        pageNos.push_back(no);
        words.insert(words.end(), slots,
                     slots + Table::kSlotsPerPage);
    });
    t.clearDirty();
    ASSERT_EQ(pageNos.size(), 1u);
    EXPECT_EQ(pageNos[0], kWild / Table::kSlotsPerPage);

    t.getOrCreate(kWild) = 9;
    t.writePage(pageNos[0], words.data());
    EXPECT_EQ(*t.find(kWild), 1234);
}

// --- sim/checkpoint restore determinism -----------------------------

/** Register/pc/input equality between two machine snapshots. */
void
expectSameState(const MachineState &a, const MachineState &b)
{
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.icount, b.icount);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.inputPos, b.inputPos);
}

TEST(Checkpoint, RestoredIntervalsMatchStraightRun)
{
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);
    constexpr std::uint64_t kL = 10'000;
    constexpr std::size_t kIntervals = 6;

    // Profile pass: capture a delta at every interval boundary.
    CheckpointStore store;
    {
        Machine m(prog, input);
        m.memory().setDirtyTracking(true);
        for (std::size_t i = 0; i < kIntervals; ++i) {
            ASSERT_EQ(m.run(nullptr, kL), StopReason::MaxInstrs);
            store.capture(m);
        }
    }
    ASSERT_EQ(store.count(), kIntervals);
    EXPECT_GT(store.pageCount(), 0u);
    EXPECT_EQ(store.pageBytes(),
              store.pageCount() * Memory::kPageBytes);

    // Straight reference: simulate 0..4L, then profile interval 4.
    ExecProfile ref(prog.textSize());
    Machine straight(prog, input);
    straight.run(nullptr, 4 * kL);
    straight.run(&ref, kL);

    // Restored run: jump 0 -> boundary 4 via page deltas alone.
    ExecProfile restored(prog.textSize());
    Machine jumped(prog, input);
    store.restoreTo(jumped, 0, 4);
    EXPECT_EQ(jumped.instrCount(), 4 * kL);
    jumped.run(&restored, kL);

    EXPECT_EQ(ref.total(), restored.total());
    for (StaticId pc = 0; pc < prog.textSize(); ++pc)
        EXPECT_EQ(ref.count(pc), restored.count(pc));
    expectSameState(straight.saveState(), jumped.saveState());

    // Chained forward restore (the Pass-B discipline): from the
    // machine's current boundary 5, step to boundary 6 and the
    // states must agree with the straight run again.
    store.restoreTo(jumped, 5, 6);
    straight.run(nullptr, kL);
    expectSameState(straight.saveState(), jumped.saveState());
}

// --- sample/: interval profiling + phase clustering -----------------

DynInstr
syntheticInstr(StaticId pc)
{
    DynInstr di;
    di.pc = pc;
    return di;
}

TEST(IntervalProfiler, SplitsStreamAndNormalizes)
{
    IntervalProfiler prof(16, 100);
    for (std::uint64_t i = 0; i < 250; ++i)
        prof.onInstr(syntheticInstr(StaticId(i % 16)));
    prof.finish();
    prof.finish(); // idempotent

    ASSERT_EQ(prof.intervals().size(), 3u);
    EXPECT_EQ(prof.intervals()[0].instrs, 100u);
    EXPECT_EQ(prof.intervals()[1].instrs, 100u);
    EXPECT_EQ(prof.intervals()[2].instrs, 50u);
    for (const auto &iv : prof.intervals()) {
        double sum = 0.0;
        for (double v : iv.sig)
            sum += v;
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(PhaseCluster, PlanIsDeterministicAndConservesInstrs)
{
    // Two synthetic phases with clearly separated signatures plus a
    // trailing partial interval.
    IntervalProfiler prof(64, 1'000);
    for (int rep = 0; rep < 2; ++rep) {
        for (std::uint64_t i = 0; i < 3'000; ++i)
            prof.onInstr(syntheticInstr(StaticId(i % 8)));
        for (std::uint64_t i = 0; i < 3'000; ++i)
            prof.onInstr(syntheticInstr(StaticId(32 + i % 8)));
    }
    for (std::uint64_t i = 0; i < 400; ++i)
        prof.onInstr(syntheticInstr(0));
    prof.finish();
    ASSERT_EQ(prof.intervals().size(), 13u);

    const PhasePlan plan =
        clusterPhases(prof.intervals(), 1'000, 4);
    const PhasePlan again =
        clusterPhases(prof.intervals(), 1'000, 4);

    // Deterministic: same profile, same plan.
    ASSERT_EQ(plan.reps.size(), again.reps.size());
    for (std::size_t i = 0; i < plan.reps.size(); ++i) {
        EXPECT_EQ(plan.reps[i].interval, again.reps[i].interval);
        EXPECT_EQ(plan.reps[i].weight, again.reps[i].weight);
        EXPECT_EQ(plan.reps[i].instrs, again.reps[i].instrs);
    }

    // Conservation: weighted instructions reproduce the stream.
    EXPECT_EQ(plan.weightedInstrs(), 12'400u);
    EXPECT_EQ(plan.intervals, 13u);
    EXPECT_LE(plan.phases, 4u);
    EXPECT_GE(plan.phases, 2u);

    // Ascending representative order (forward-only restores), and
    // the trailing partial is its own weight-1 representative.
    for (std::size_t i = 1; i < plan.reps.size(); ++i)
        EXPECT_GT(plan.reps[i].interval, plan.reps[i - 1].interval);
    EXPECT_EQ(plan.reps.back().interval, 12u);
    EXPECT_EQ(plan.reps.back().weight, 1u);
    EXPECT_EQ(plan.reps.back().instrs, 400u);
}

// --- PPM_SAMPLE parsing ---------------------------------------------

TEST(SampleOptions, FromEnvParsesAndValidates)
{
    unsetenv("PPM_SAMPLE");
    EXPECT_FALSE(SampleOptions::fromEnv().enabled());

    setenv("PPM_SAMPLE", "1000000,100000,8", 1);
    const SampleOptions o = SampleOptions::fromEnv();
    EXPECT_TRUE(o.enabled());
    EXPECT_EQ(o.intervalLen, 1'000'000u);
    EXPECT_EQ(o.warmupLen, 100'000u);
    EXPECT_EQ(o.maxPhases, 8u);

    for (const char *bad :
         {"nonsense", "100", "100,50", "100,50,8,9", "0,50,8",
          "100,50,0", "100,,8", "100,50,8x", "100, 50,8", "-1,50,8",
          "99999999999999999999999,50,8"}) {
        setenv("PPM_SAMPLE", bad, 1);
        EXPECT_THROW(SampleOptions::fromEnv(), EnvError)
            << "accepted PPM_SAMPLE=" << bad;
    }
    unsetenv("PPM_SAMPLE");
}

// --- weighted-merge statistics algebra ------------------------------

TEST(SampledStats, ScaleAndMergeRecomputeGshareFromTallies)
{
    DpgStats a;
    a.dynInstrs = 100;
    a.gshareLookups = 100;
    a.gshareHits = 90;
    a.gshareAccuracy = 0.9;
    a.scaleBy(3);
    EXPECT_EQ(a.dynInstrs, 300u);
    EXPECT_EQ(a.gshareLookups, 300u);
    EXPECT_EQ(a.gshareHits, 270u);
    EXPECT_DOUBLE_EQ(a.gshareAccuracy, 0.9);

    DpgStats b;
    b.dynInstrs = 100;
    b.gshareLookups = 100;
    b.gshareHits = 50;
    b.gshareAccuracy = 0.5;
    a.mergeSampled(b);
    EXPECT_EQ(a.dynInstrs, 400u);
    // Exact weighted ratio (320/400), not an average of ratios.
    EXPECT_DOUBLE_EQ(a.gshareAccuracy, 0.8);
}

// --- end-to-end sampled scheduler -----------------------------------

/** Collapse every counter a run produces into one comparable string. */
std::string
fingerprint(const DpgStats &s)
{
    std::ostringstream os;
    os << toJson(s);
    os << "|seq=" << s.sequences.instructionsInSequences();
    os << "|trees=" << s.trees.generateCount();
    os << "|gsh=" << s.gshareLookups << "/" << s.gshareHits;
    return os.str();
}

/** Output accuracy over classified nodes (fingerprint metric). */
double
outputAccPct(const DpgStats &s)
{
    const std::uint64_t gen = s.nodes.generates();
    const std::uint64_t prop = s.nodes.propagates();
    const std::uint64_t classified =
        gen + prop + s.nodes.terminates() +
        s.nodes.count(NodeClass::UnpredFlow);
    return classified
               ? 100.0 * double(gen + prop) / double(classified)
               : 0.0;
}

// The converge-gate operating point (tests/CMakeLists.txt,
// .github/workflows/ci.yml): m88ksim at this budget/geometry lands
// well inside the 1-point figure tolerance.
constexpr std::uint64_t kSampleBudget = 1'000'000;

SampleOptions
testSampleOptions()
{
    SampleOptions opts;
    opts.intervalLen = 100'000;
    opts.warmupLen = 50'000;
    opts.maxPhases = 8;
    return opts;
}

TEST(SampledRun, DeterministicAcrossRepeats)
{
    const Workload &w = findWorkload("m88ksim");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);
    std::vector<DpgConfig> configs(2);
    configs[0].kind = PredictorKind::Context;
    configs[1].kind = PredictorKind::Stride2Delta;

    const SampledResult first = runSampledAnalysis(
        prog, input, kSampleBudget, configs, testSampleOptions());
    const SampledResult again = runSampledAnalysis(
        prog, input, kSampleBudget, configs, testSampleOptions());

    ASSERT_EQ(first.stats.size(), 2u);
    ASSERT_EQ(again.stats.size(), 2u);
    for (std::size_t i = 0; i < first.stats.size(); ++i) {
        EXPECT_EQ(fingerprint(first.stats[i]),
                  fingerprint(again.stats[i]));
    }

    // Weighted conservation: merged counters stand for the full
    // budget, while only a fraction was actually analyzed.
    EXPECT_EQ(first.stats[0].dynInstrs, kSampleBudget);
    EXPECT_EQ(first.timing.dynInstrs, kSampleBudget);
    EXPECT_LT(first.timing.sampledInstrs, kSampleBudget);
    EXPECT_GT(first.timing.sampledInstrs, 0u);
    EXPECT_GT(first.timing.phases, 0u);
    EXPECT_GT(first.timing.checkpointBytes, 0u);
}

TEST(SampledRun, TracksFullModelWithinFigureTolerance)
{
    const Workload &w = findWorkload("m88ksim");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);

    std::vector<DpgConfig> configs(1);
    configs[0].kind = PredictorKind::Context;
    const SampledResult sampled = runSampledAnalysis(
        prog, input, kSampleBudget, configs, testSampleOptions());

    ExperimentConfig full;
    full.maxInstrs = kSampleBudget;
    full.dpg.kind = PredictorKind::Context;
    const DpgStats ref = runModel(prog, input, full);

    ASSERT_EQ(sampled.stats.size(), 1u);
    EXPECT_EQ(sampled.stats[0].dynInstrs, ref.dynInstrs);
    EXPECT_NEAR(outputAccPct(sampled.stats[0]), outputAccPct(ref),
                1.0);
    EXPECT_NEAR(100.0 * sampled.stats[0].gshareAccuracy,
                100.0 * ref.gshareAccuracy, 1.0);
}

// --- engine integration ---------------------------------------------

TEST(SampledEngine, OffPathIsByteIdenticalAndOnPathIsFlagged)
{
    const Workload &w = findWorkload("m88ksim");
    ExperimentConfig cell;
    cell.maxInstrs = kSampleBudget;
    cell.dpg.kind = PredictorKind::Context;

    // Explicitly-disabled sampling must take the classic path and
    // reproduce the serial reference bit for bit.
    EngineOptions offOpts;
    offOpts.threads = 1;
    offOpts.sample = SampleOptions{}; // disabled
    ExperimentEngine off(offOpts);
    const auto offOut =
        off.run({off.makeJob(w, cell)}).at(0);
    EXPECT_FALSE(offOut.timing.sampled);

    const Program prog = assemble(std::string(w.source), w.name);
    const DpgStats ref =
        runModel(prog, w.makeInput(kDefaultWorkloadSeed), cell);
    EXPECT_EQ(fingerprint(offOut.stats), fingerprint(ref));

    // Sampling on: flagged rows, sampled timing stages populated,
    // statistics within figure tolerance.
    EngineOptions onOpts;
    onOpts.threads = 1;
    onOpts.sample = testSampleOptions();
    ExperimentEngine on(onOpts);
    const auto onOut = on.run({on.makeJob(w, cell)}).at(0);
    EXPECT_TRUE(onOut.timing.sampled);
    EXPECT_GT(onOut.timing.phases, 0u);
    EXPECT_GT(onOut.timing.sampledInstrs, 0u);
    EXPECT_LT(onOut.timing.sampledInstrs, kSampleBudget);
    EXPECT_EQ(onOut.stats.dynInstrs, kSampleBudget);
    EXPECT_NEAR(outputAccPct(onOut.stats), outputAccPct(ref), 1.0);
}

} // namespace
} // namespace ppm
