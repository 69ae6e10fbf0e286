#include "runner/stage_report.hh"

#include <cstdlib>
#include <ostream>

#include "analysis/figures.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "support/env.hh"
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

bool
quickMode()
{
    return envFlag("PPM_QUICK", false);
}

const char *
boolStr(bool b)
{
    return b ? "true" : "false";
}

} // namespace

void
writeBenchJson(std::ostream &os, const ExperimentEngine &engine)
{
    const auto runs = engine.history();
    const Totals t = accumulate(runs);
    const double wall = engine.totalWallSec();
    const char *label = std::getenv("PPM_BENCH_LABEL");

    os << "{";
    os << "\"schema\":\"ppm-bench-timing-v3\"";
    os << ",\"label\":\"" << jsonEscape(label ? label : "") << "\"";
    os << ",\"threads\":" << engine.threads();
    os << ",\"quick\":" << boolStr(quickMode());
    os << ",\"wall_s\":" << wall;

    os << ",\"runs\":[";
    bool first = true;
    for (const auto &run : runs) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"workload\":\"" << jsonEscape(run.workload) << "\""
           << ",\"predictor\":\""
           << jsonEscape(std::string(predictorName(run.kind))) << "\""
           << ",\"assemble_s\":" << run.timing.assembleSec
           << ",\"simulate_s\":" << run.timing.simulateSec
           << ",\"analyze_s\":" << run.timing.analyzeSec
           << ",\"dyn_instrs\":" << run.timing.dynInstrs
           << ",\"capture_shared\":"
           << boolStr(run.timing.captureShared)
           << ",\"lanes\":" << run.timing.lanes
           << ",\"lane\":" << run.timing.laneIndex
           << ",\"sampled\":" << boolStr(run.timing.sampled);
        if (run.timing.sampled) {
            os << ",\"phases\":" << run.timing.phases
               << ",\"sampled_instrs\":" << run.timing.sampledInstrs
               << ",\"checkpoint_s\":" << run.timing.checkpointSec
               << ",\"fastforward_s\":"
               << run.timing.fastForwardSec;
        }
        os << "}";
    }
    os << "]";

    // Costs paid once per pass (stream production), reported apart
    // from the per-lane analyze times above so that summing analyze_s
    // over runs plus shared_stages never double-counts.
    os << ",\"shared_stages\":{"
       << "\"simulate_s\":" << t.simulateSec
       << ",\"dispatch_s\":" << t.dispatchSec
       << ",\"checkpoint_s\":" << t.checkpointSec
       << ",\"fastforward_s\":" << t.fastForwardSec
       << ",\"passes\":" << t.passes << "}";

    os << ",\"totals\":{"
       << "\"runs\":" << t.runs
       << ",\"simulations\":" << t.simulations
       << ",\"capture_hits\":" << t.captureHits
       << ",\"assemble_s\":" << t.assembleSec
       << ",\"simulate_s\":" << t.simulateSec
       << ",\"analyze_s\":" << t.analyzeSec
       << ",\"dispatch_s\":" << t.dispatchSec
       << ",\"checkpoint_s\":" << t.checkpointSec
       << ",\"fastforward_s\":" << t.fastForwardSec
       << ",\"sampled_runs\":" << t.sampledRuns
       << ",\"sampled_instrs\":" << t.sampledInstrs
       << ",\"dyn_instrs\":" << t.dynInstrs
       << ",\"instrs_per_s\":"
       << (wall > 0.0 ? double(t.dynInstrs) / wall : 0.0) << "}";
    os << "}\n";
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
