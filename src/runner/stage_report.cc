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
    std::uint64_t fusedGroups = 0;
    std::uint64_t fusedLanes = 0;
};

Totals
accumulate(const std::vector<ExperimentEngine::TimedRun> &runs)
{
    Totals t;
    for (const auto &run : runs) {
        ++t.runs;
        t.assembleSec += run.timing.assembleSec;
        t.analyzeSec += run.timing.analyzeSec;
        t.dynInstrs += run.timing.dynInstrs;
        if (run.timing.captureShared) {
            ++t.captureHits;
        } else {
            // simulateSec is copied into every sharing cell; count the
            // wall cost once, at the cell that actually ran it.
            ++t.simulations;
            t.simulateSec += run.timing.simulateSec;
        }
        // Sampled-pass shared stages (checkpoint capture, pass-B
        // fast-forward) follow the lane-0 attribution discipline, so
        // summing over runs counts each group cost exactly once.
        if (run.timing.sampled) {
            ++t.sampledRuns;
            t.checkpointSec += run.timing.checkpointSec;
            t.fastForwardSec += run.timing.fastForwardSec;
            if (!run.timing.fused || run.timing.laneIndex == 0)
                t.sampledInstrs += run.timing.sampledInstrs;
            // A single-cell sampled pass still has a dispatch stage
            // (pass-B stream production); the fused branch below only
            // picks it up for multi-lane groups.
            if (!run.timing.fused)
                t.dispatchSec += run.timing.dispatchSec;
        }
        // Shared stages of a fused pass are attributed to lane 0
        // only, so every per-group cost is counted exactly once even
        // though all lanes carry the fused flag.
        if (run.timing.fused) {
            t.fusedLanes += 1;
            if (run.timing.laneIndex == 0) {
                ++t.fusedGroups;
                t.dispatchSec += run.timing.dispatchSec;
            }
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
    os << "\"schema\":\"ppm-bench-timing-v2\"";
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
           << ",\"fused\":" << boolStr(run.timing.fused)
           << ",\"lanes\":" << run.timing.fusedLanes
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

    // Costs paid once per fused group (stream production), reported
    // apart from the per-lane analyze times above so that summing
    // analyze_s over runs plus shared_stages never double-counts.
    os << ",\"shared_stages\":{"
       << "\"simulate_s\":" << t.simulateSec
       << ",\"dispatch_s\":" << t.dispatchSec
       << ",\"checkpoint_s\":" << t.checkpointSec
       << ",\"fastforward_s\":" << t.fastForwardSec
       << ",\"fused_groups\":" << t.fusedGroups
       << ",\"fused_lanes\":" << t.fusedLanes << "}";

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
    os << "[ppm] " << t.runs << " runs on " << engine.threads()
       << " thread(s): " << t.simulations << " simulation(s), "
       << t.captureHits << " capture reuse(s)";
    if (t.fusedGroups > 0) {
        os << ", " << t.fusedLanes << " lanes fused into "
           << t.fusedGroups << " pass(es)";
    }
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
