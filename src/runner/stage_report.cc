#include "runner/stage_report.hh"

#include <cstdlib>
#include <ostream>

#include "runner/engine.hh"
#include "support/env.hh"
#include "support/mini_json.hh"
#include "support/string_utils.hh"

namespace ppm {

namespace {

struct Totals
{
    double assembleSec = 0.0;
    double simulateSec = 0.0;
    double analyzeSec = 0.0;
    double dispatchSec = 0.0;
    double checkpointSec = 0.0;
    double fastForwardSec = 0.0;
    std::uint64_t dynInstrs = 0;
    std::uint64_t sampledInstrs = 0;
    std::uint64_t runs = 0;
    std::uint64_t sampledRuns = 0;
    std::uint64_t simulations = 0;
    std::uint64_t captureHits = 0;
    std::uint64_t passes = 0;
};

Totals
accumulate(const std::vector<ExperimentEngine::TimedRun> &runs)
{
    Totals t;
    for (const auto &run : runs) {
        const StageTiming &s = run.timing;
        ++t.runs;
        t.assembleSec += s.assembleSec;
        t.analyzeSec += s.analyzeSec;
        t.dynInstrs += s.dynInstrs;
        // Per-pass costs live on lane 0 only, so plain sums count
        // each pass exactly once.
        t.dispatchSec += s.dispatchSec;
        t.checkpointSec += s.checkpointSec;
        t.fastForwardSec += s.fastForwardSec;
        t.sampledInstrs += s.sampledInstrs;
        t.passes += s.laneIndex == 0;
        t.sampledRuns += s.sampled;
        if (s.captureShared) {
            ++t.captureHits;
        } else {
            // simulateSec is copied into every sharing cell; count the
            // wall cost once, at the cell that actually ran it.
            ++t.simulations;
            t.simulateSec += s.simulateSec;
        }
    }
    return t;
}

} // namespace

void
writeBenchJson(std::ostream &os, const ExperimentEngine &engine)
{
    const auto runs = engine.history();
    const Totals t = accumulate(runs);
    const double wall = engine.totalWallSec();
    const char *label = std::getenv("PPM_BENCH_LABEL");

    JsonWriter w;
    w.beginObject()
        .key("schema").string("ppm-bench-timing-v3")
        .key("label").string(label ? label : "")
        .key("threads").u64(engine.threads())
        .key("quick").boolean(envFlag("PPM_QUICK", false))
        .key("wall_s").general(wall)
        .key("runs").beginArray();
    for (const auto &run : runs) {
        const StageTiming &s = run.timing;
        w.beginObject()
            .key("workload").string(run.workload)
            .key("predictor").string(predictorName(run.kind))
            .key("assemble_s").general(s.assembleSec)
            .key("simulate_s").general(s.simulateSec)
            .key("analyze_s").general(s.analyzeSec)
            .key("dyn_instrs").u64(s.dynInstrs)
            .key("capture_shared").boolean(s.captureShared)
            .key("lanes").u64(s.lanes)
            .key("lane").u64(s.laneIndex)
            .key("sampled").boolean(s.sampled);
        if (s.sampled) {
            w.key("phases").u64(s.phases)
                .key("sampled_instrs").u64(s.sampledInstrs)
                .key("checkpoint_s").general(s.checkpointSec)
                .key("fastforward_s").general(s.fastForwardSec);
        }
        w.endObject();
    }
    w.endArray();

    // Costs paid once per pass (stream production), reported apart
    // from the per-lane analyze times above so that summing analyze_s
    // over runs plus shared_stages never double-counts.
    w.key("shared_stages").beginObject()
        .key("simulate_s").general(t.simulateSec)
        .key("dispatch_s").general(t.dispatchSec)
        .key("checkpoint_s").general(t.checkpointSec)
        .key("fastforward_s").general(t.fastForwardSec)
        .key("passes").u64(t.passes)
        .endObject();

    w.key("totals").beginObject()
        .key("runs").u64(t.runs)
        .key("simulations").u64(t.simulations)
        .key("capture_hits").u64(t.captureHits)
        .key("assemble_s").general(t.assembleSec)
        .key("simulate_s").general(t.simulateSec)
        .key("analyze_s").general(t.analyzeSec)
        .key("dispatch_s").general(t.dispatchSec)
        .key("checkpoint_s").general(t.checkpointSec)
        .key("fastforward_s").general(t.fastForwardSec)
        .key("sampled_runs").u64(t.sampledRuns)
        .key("sampled_instrs").u64(t.sampledInstrs)
        .key("dyn_instrs").u64(t.dynInstrs)
        .key("instrs_per_s")
        .general(wall > 0.0 ? double(t.dynInstrs) / wall : 0.0)
        .endObject()
        .endObject()
        .newline();
    os << w.json();
}

void
printStageSummary(std::ostream &os, const ExperimentEngine &engine)
{
    const auto runs = engine.history();
    if (runs.empty())
        return;
    const Totals t = accumulate(runs);
    const double wall = engine.totalWallSec();
    os << "[ppm] " << t.runs << " runs in " << t.passes
       << " pass(es) on " << engine.threads()
       << " thread(s): " << t.simulations << " simulation(s), "
       << t.captureHits << " capture reuse(s)";
    if (t.sampledRuns > 0) {
        os << ", " << t.sampledRuns << " sampled run(s) ("
           << formatCount(t.sampledInstrs) << " of "
           << formatCount(t.dynInstrs) << " instrs analyzed)";
    }
    os << "\n"
       << "[ppm] stage wall: assemble "
       << formatDouble(t.assembleSec, 2) << "s, simulate "
       << formatDouble(t.simulateSec, 2) << "s, analyze "
       << formatDouble(t.analyzeSec, 2) << "s";
    if (t.checkpointSec > 0.0 || t.fastForwardSec > 0.0) {
        os << ", checkpoint " << formatDouble(t.checkpointSec, 2)
           << "s, fast-forward "
           << formatDouble(t.fastForwardSec, 2) << "s";
    }
    os << "; total "
       << formatDouble(wall, 2) << "s ("
       << formatCount(static_cast<std::uint64_t>(
              wall > 0.0 ? double(t.dynInstrs) / wall : 0.0))
       << " model instrs/s)\n";
}

} // namespace ppm
