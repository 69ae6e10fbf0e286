/**
 * @file
 * Request-oriented engine API tests: submit()/wait()/cancel() must
 * agree byte-for-byte with the run() batch shim and the serial
 * two-pass reference, EngineOptions::fromEnv() must resolve (and
 * reject) environment knobs exactly like the engine constructor,
 * empty batches and zero-instruction budgets must complete cleanly,
 * and concurrent submitters hitting the same CaptureKey must dedup
 * through the RunCache.
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
#include "support/env.hh"
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

TEST(EngineApi, SubmitWaitMatchesRunShimAndSerialReference)
{
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("compress");

    std::vector<RequestHandle> handles;
    for (PredictorKind kind : kAllPredictorKinds) {
        handles.push_back(
            engine.submit(engine.makeJob(w, cellConfig(kind))));
    }

    // Ids are engine-unique and monotonically increasing.
    for (std::size_t i = 1; i < handles.size(); ++i)
        EXPECT_GT(handles[i].id(), handles[i - 1].id());

    std::vector<ExperimentOutcome> viaSubmit;
    for (RequestHandle &h : handles)
        viaSubmit.push_back(h.wait());
    EXPECT_EQ(engine.inflight(), 0u);
    EXPECT_EQ(engine.queueDepth(), 0u);

    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kAllPredictorKinds)
        jobs.push_back(engine.makeJob(w, cellConfig(kind)));
    const auto viaRun = engine.run(jobs);

    ASSERT_EQ(viaSubmit.size(), viaRun.size());
    for (std::size_t i = 0; i < viaSubmit.size(); ++i) {
        EXPECT_EQ(fingerprint(viaSubmit[i].stats),
                  fingerprint(viaRun[i].stats));
        EXPECT_EQ(fingerprint(viaSubmit[i].stats),
                  fingerprint(referenceStats(
                      w, cellConfig(kAllPredictorKinds[i]))));
        EXPECT_GE(viaSubmit[i].timing.queueSec, 0.0);
    }
}

TEST(EngineApi, EmptyBatchReturnsCleanly)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);
    const auto outcomes = engine.run({});
    EXPECT_TRUE(outcomes.empty());
    EXPECT_TRUE(engine.submitAll({}).empty());
    EXPECT_EQ(engine.inflight(), 0u);
    EXPECT_TRUE(engine.history().empty());
}

TEST(EngineApi, ZeroInstructionBudgetCompletesCleanly)
{
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("compress");

    RequestHandle handle = engine.submit(
        engine.makeJob(w, cellConfig(PredictorKind::Context, 0)));
    const ExperimentOutcome out = handle.wait();
    EXPECT_EQ(out.timing.dynInstrs, 0u);
    EXPECT_EQ(out.stats.dynInstrs, 0u);
    EXPECT_EQ(out.stats.nodes.total(), 0u);

    // The batch shim takes the same path.
    const auto outcomes = engine.run(
        {engine.makeJob(w, cellConfig(PredictorKind::LastValue, 0))});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].timing.dynInstrs, 0u);
}

TEST(EngineApi, CancelUnqueuesPendingRequest)
{
    // One worker, pinned down by a deliberately large first job, so
    // the second submission is still pending when cancel() lands.
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("compress");

    RequestHandle big = engine.submit(engine.makeJob(
        w, cellConfig(PredictorKind::Context, 2'000'000)));
    // Different budget -> different CaptureKey -> never coalesced
    // into the running pass.
    RequestHandle victim = engine.submit(
        engine.makeJob(w, cellConfig(PredictorKind::Context, kBudget)));

    EXPECT_TRUE(victim.cancel());
    EXPECT_EQ(victim.status(), RequestStatus::Cancelled);
    EXPECT_THROW(victim.wait(), RequestCancelled);
    EXPECT_FALSE(victim.cancel()); // Already terminal.

    const ExperimentOutcome out = big.wait();
    EXPECT_GT(out.timing.dynInstrs, 0u);
    EXPECT_FALSE(big.cancel()); // Completed requests can't cancel.
    EXPECT_EQ(engine.inflight(), 0u);
}

TEST(EngineApi, CoalescedFollowerReportsOwnQueueInterval)
{
    // Queue-window coalescing claims a leader plus every pending
    // request sharing its CaptureKey at one instant. Each absorbed
    // follower must report its OWN enqueue→claim interval — not the
    // leader's — so a follower submitted later shows a strictly
    // shorter queueSec.
    EngineOptions opts;
    opts.threads = 1;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("compress");

    // Pin the single worker so the coalescing window stays open.
    RequestHandle pin = engine.submit(engine.makeJob(
        w, cellConfig(PredictorKind::Context, 2'000'000)));

    RequestHandle leader = engine.submit(
        engine.makeJob(w, cellConfig(PredictorKind::Context)));
    // A measurable submission gap, far above clock granularity.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RequestHandle follower = engine.submit(
        engine.makeJob(w, cellConfig(PredictorKind::LastValue)));

    const ExperimentOutcome pinOut = pin.wait();
    const ExperimentOutcome leadOut = leader.wait();
    const ExperimentOutcome follOut = follower.wait();
    (void)pinOut;

    // Same CaptureKey, claimed as one two-lane pass.
    ASSERT_EQ(leadOut.timing.lanes, 2u);
    ASSERT_EQ(follOut.timing.lanes, 2u);

    EXPECT_GE(follOut.timing.queueSec, 0.0);
    // The follower waited at least 50 ms less than the leader; allow
    // generous scheduling slack on either side.
    EXPECT_LT(follOut.timing.queueSec + 0.040,
              leadOut.timing.queueSec);
}

TEST(EngineApi, ConcurrentSubmittersDedupThroughRunCache)
{
    // N client threads race identical and distinct CaptureKeys
    // through submit(); the capture tier must simulate each distinct
    // key exactly once, and every outcome must match the serial path
    // byte-for-byte. Retention keeps captures across requests that
    // don't overlap in flight.
    EngineOptions opts;
    opts.threads = 4;
    opts.captureRetentionBytes = 256ULL << 20;
    ExperimentEngine engine(opts);
    const Workload &w = findWorkload("li");

    constexpr unsigned kClients = 8;
    constexpr std::uint64_t kDistinctBudgets[] = {10'000, 20'000,
                                                  30'000};

    std::mutex mu;
    std::vector<std::string> sharedFps;
    std::vector<std::pair<std::uint64_t, std::string>> distinctFps;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            // Every client submits the SAME cell...
            RequestHandle same = engine.submit(
                engine.makeJob(w, cellConfig(PredictorKind::Context)));
            // ...plus one of three distinct-budget cells.
            const std::uint64_t budget =
                kDistinctBudgets[c % std::size(kDistinctBudgets)];
            RequestHandle other = engine.submit(engine.makeJob(
                w, cellConfig(PredictorKind::Context, budget)));
            const std::string sameFp =
                fingerprint(same.wait().stats);
            const std::string otherFp =
                fingerprint(other.wait().stats);
            std::lock_guard<std::mutex> lock(mu);
            sharedFps.push_back(sameFp);
            distinctFps.emplace_back(budget, otherFp);
        });
    }
    for (std::thread &t : clients)
        t.join();

    // Dedup: 4 distinct CaptureKeys total (kBudget + 3 distinct),
    // each simulated exactly once despite 16 submissions. Coalescing
    // makes the capture-*lookup* count scheduling-dependent (one per
    // claimed group), but the miss count is exact.
    const RunCache::Counters counters = engine.cache().counters();
    EXPECT_EQ(counters.captureMisses, 4u);
    EXPECT_LE(counters.captureHits, 2 * kClients - 4u);

    // Byte-identical to the serial two-pass path, per key.
    const std::string refShared = fingerprint(
        referenceStats(w, cellConfig(PredictorKind::Context)));
    for (const std::string &fp : sharedFps)
        EXPECT_EQ(fp, refShared);
    for (const std::uint64_t budget : kDistinctBudgets) {
        const std::string ref = fingerprint(referenceStats(
            w, cellConfig(PredictorKind::Context, budget)));
        for (const auto &[b, fp] : distinctFps) {
            if (b == budget) {
                EXPECT_EQ(fp, ref);
            }
        }
    }
}

TEST(EngineApi, FromEnvResolvesKnobsAndShieldsExplicitFields)
{
    unsetenv("PPM_THREADS");
    unsetenv("PPM_VERIFY");
    ASSERT_EQ(setenv("PPM_THREADS", "3", 1), 0);
    ASSERT_EQ(setenv("PPM_VERIFY", "1", 1), 0);
    const EngineOptions resolved = EngineOptions::fromEnv();
    EXPECT_EQ(resolved.threads, 3u);
    ASSERT_TRUE(resolved.verify.has_value());
    EXPECT_TRUE(*resolved.verify);

    // An explicit field wins and its variable is not even parsed.
    ASSERT_EQ(setenv("PPM_THREADS", "garbage", 1), 0);
    ASSERT_EQ(setenv("PPM_VERIFY", "garbage", 1), 0);
    EngineOptions explicitThreads;
    explicitThreads.threads = 2;
    explicitThreads.verify = false;
    const EngineOptions shielded =
        explicitThreads.withEnvFallback();
    EXPECT_EQ(shielded.threads, 2u);
    EXPECT_FALSE(*shielded.verify);

    unsetenv("PPM_VERIFY");
    unsetenv("PPM_THREADS");
}

TEST(EngineApi, FromEnvFailsLoudlyOnMalformedValues)
{
    // The single resolution path shared by the constructor, CLI, and
    // daemon: malformed values throw EnvError naming the variable.
    ASSERT_EQ(setenv("PPM_THREADS", "abc", 1), 0);
    try {
        (void)EngineOptions::fromEnv();
        FAIL() << "expected EnvError";
    } catch (const EnvError &e) {
        EXPECT_NE(std::string(e.what()).find("PPM_THREADS"),
                  std::string::npos);
    }
    unsetenv("PPM_THREADS");

    ASSERT_EQ(setenv("PPM_VERIFY", "maybe", 1), 0);
    EXPECT_THROW((void)EngineOptions::fromEnv(), EnvError);
    unsetenv("PPM_VERIFY");
}

} // namespace
} // namespace ppm
