#include "runner/sampled_run.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/obs.hh"
#include "runner/fused_sink.hh"
#include "sample/interval_profiler.hh"
#include "sample/phase_cluster.hh"
#include "sim/checkpoint.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"
#include "support/env.hh"
#include "support/string_utils.hh"

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

SampleOptions
SampleOptions::fromEnv()
{
    const char *raw = std::getenv("PPM_SAMPLE");
    if (!raw || !*raw)
        return SampleOptions{};

    // Exactly three fields, each parsed whole by parseUint.
    std::uint64_t field[3] = {};
    std::string_view rest = raw;
    for (int i = 0; i < 3; ++i) {
        const std::size_t comma = rest.find(',');
        const auto v = parseUint(rest.substr(0, comma));
        if (!v || (comma == std::string_view::npos) != (i == 2)) {
            throw EnvError(std::string("PPM_SAMPLE: expected "
                                       "<interval>,<warmup>,"
                                       "<maxphases>, got \"") +
                           raw + "\"");
        }
        field[i] = *v;
        if (i < 2)
            rest.remove_prefix(comma + 1);
    }
    SampleOptions o;
    o.intervalLen = field[0];
    o.warmupLen = field[1];
    o.maxPhases = static_cast<unsigned>(
        std::min<std::uint64_t>(field[2], 1u << 16));
    if (o.intervalLen == 0 || o.maxPhases == 0) {
        throw EnvError("PPM_SAMPLE: interval and maxphases must be "
                       ">= 1 (unset the variable to disable "
                       "sampling)");
    }
    return o;
}

SampledResult
runSampledAnalysis(const Program &prog,
                   const std::vector<Value> &input,
                   std::uint64_t maxInstrs,
                   const std::vector<DpgConfig> &configs,
                   const SampleOptions &opts, unsigned)
{
    assert(opts.enabled());
    const std::uint64_t L = opts.intervalLen;

    SampledResult r;
    r.stats.resize(configs.size());
    r.laneSeconds.assign(configs.size(), 0.0);

    // Every lane analyzes a sub-stream of the profiled run.
    std::vector<DpgConfig> laneConfigs = configs;
    for (DpgConfig &config : laneConfigs)
        config.partialStream = true;

    // --- Pass A: profile + checkpoint the full budget --------------
    //
    // One full-budget simulation with cheap sinks only. Checkpoints
    // are captured at every completed full-interval boundary; the
    // trailing partial interval needs none (no representative ever
    // restores past the last boundary).
    ExecProfile profile(static_cast<StaticId>(prog.textSize()));
    IntervalProfiler iprof(prog.textSize(), L);
    TeeSink tee({&profile, &iprof});

    Machine machine(prog, input);
    machine.memory().setDirtyTracking(true);
    CheckpointStore store;

    {
        // Pass A is this pass's pass-1 simulation: counted with its
        // span here, so direct callers balance the same identity as
        // the engine (span(simulate) == runner.simulations).
        obs::Span span("simulate", "runner");
        if (obs::Counter *c = obs::counter("runner.simulations"))
            c->add();
        const auto t0 = Clock::now();
        std::uint64_t remaining = maxInstrs;
        while (remaining > 0 && !machine.halted()) {
            const std::uint64_t chunk = std::min(L, remaining);
            const std::uint64_t before = machine.instrCount();
            machine.run(&tee, chunk);
            const std::uint64_t ran = machine.instrCount() - before;
            remaining -= ran;
            if (ran == L && !machine.halted()) {
                const auto c0 = Clock::now();
                store.capture(machine);
                r.timing.checkpointSec += secondsSince(c0);
            }
        }
        iprof.finish();
        r.timing.simulateSec =
            secondsSince(t0) - r.timing.checkpointSec;
    }
    machine.memory().setDirtyTracking(false);
    r.timing.dynInstrs = profile.total();
    r.timing.checkpointBytes = store.pageBytes();

    // --- Plan: cluster intervals, pick weighted representatives ----
    const PhasePlan plan =
        clusterPhases(iprof.intervals(), L, opts.maxPhases);
    r.timing.phases = plan.phases;
    assert(plan.weightedInstrs() == profile.total());

    if (plan.reps.empty()) {
        // Empty stream (zero budget / instant halt): finalize fresh
        // lanes so callers still get well-formed statistics.
        r.stats = analyzeStream(prog, profile, laneConfigs,
                                [](FusedAnalysisSink &) {})
                      .stats;
        return r;
    }

    // --- Pass B: fast-forward, warm up, measure, merge -------------
    //
    // Representatives are visited in ascending interval order on a
    // fresh machine (boundary 0), so every checkpoint delta's pages
    // are applied at most once across the whole pass, and the machine
    // position never has to move backward: a warm-up prefix that
    // would start before the current position (adjacent
    // representatives) is clamped — those instructions were just
    // executed and analyzed, shrinking the warm-up is the forward-
    // only discipline's price.
    Machine mb(prog, input);
    std::uint64_t pos = 0;  // mb's stream position, in instructions.
    std::size_t curB = 0;   // Checkpoint boundary at/behind pos.
    bool first = true;

    for (const PhaseRep &rep : plan.reps) {
        obs::Span span("sample_rep", "runner");
        const std::uint64_t repStart = rep.interval * L;
        assert(repStart >= pos);
        std::uint64_t warmStart =
            repStart - std::min(opts.warmupLen, repStart);
        warmStart = std::max(warmStart, pos);
        const std::size_t bound =
            static_cast<std::size_t>(warmStart / L);

        const auto f0 = Clock::now();
        if (bound > curB) {
            store.restoreTo(mb, curB, bound);
            curB = bound;
            pos = static_cast<std::uint64_t>(bound) * L;
        }
        if (warmStart > pos) {
            // Sub-interval gap between the floor boundary and the
            // warm-up start: cheap sink-less simulation.
            mb.run(nullptr, warmStart - pos);
            pos = warmStart;
        }
        r.timing.fastForwardSec += secondsSince(f0);

        SampledResult measured = analyzeStream(
            prog, profile, laneConfigs, [&](FusedAnalysisSink &sink) {
                if (repStart > pos) {
                    sink.setWarmup(true);
                    const std::uint64_t before = mb.instrCount();
                    mb.run(&sink, repStart - pos);
                    pos += mb.instrCount() - before;
                }
                sink.setWarmup(false);
                const std::uint64_t before = mb.instrCount();
                mb.run(&sink, rep.instrs);
                pos += mb.instrCount() - before;
            });
        r.timing.sampledInstrs += pos - warmStart;
        r.timing.dispatchSec += measured.timing.dispatchSec;
        curB = static_cast<std::size_t>(pos / L);

        for (std::size_t i = 0; i < configs.size(); ++i) {
            r.laneSeconds[i] += measured.laneSeconds[i];
            DpgStats &s = measured.stats[i];
            s.scaleBy(rep.weight);
            if (first)
                r.stats[i] = std::move(s);
            else
                r.stats[i].mergeSampled(s);
        }
        first = false;
    }

    return r;
}

} // namespace ppm
