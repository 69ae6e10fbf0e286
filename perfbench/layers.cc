/**
 * @file
 * Per-layer harnesses shared by every workload's traced run: the
 * runner's StageTiming sums, bare simulation, the DpgRole split over
 * a fixed cell set, and the sampled-pass breakdown.
 */

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "asmr/assembler.hh"
#include "bench.hh"
#include "obs/obs.hh"
#include "runner/sampled_run.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"

namespace ppm::perfbench {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
inputSeed(std::uint64_t seed)
{
    return kDefaultWorkloadSeed ^ (seed * 0x9e3779b97f4a7c15ULL);
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
renderFigures(std::ostream &os, const std::vector<RunResult> &runs)
{
    obs::Span span("bench.render", "bench");
    printTable1(os, runs);
    printFig5(os, runs);
    printFig6(os, runs);
    printFig7(os, runs);
    printFig8(os, runs);
    printFig9(os, runs);
    printFig12(os, runs);
    printFig13(os, runs);
    for (const RunResult &run : runs) {
        printFig10(os, run.stats);
        printFig11(os, run.stats);
    }
}

void
reportRunnerLayer(Result &r, ExperimentEngine &engine, std::size_t from,
                  double bareSimSec)
{
    double simulate = 0.0;
    double analyze = 0.0;
    double dispatch = 0.0;
    std::uint64_t simulations = 0;
    std::uint64_t passes = 0;
    std::vector<double> queueMs;
    const auto history = engine.history();
    for (std::size_t i = from; i < history.size(); ++i) {
        const StageTiming &t = history[i].timing;
        // A pass's capture is charged to the one cell that ran it;
        // its lanes each report their own analyze time.
        if (!t.captureShared) {
            simulate += t.simulateSec;
            ++simulations;
        }
        analyze += t.analyzeSec;
        dispatch += t.dispatchSec;
        passes += t.laneIndex == 0;
        queueMs.push_back(1e3 * t.queueSec);
    }
    r.set("runner.simulate_s", simulate, "s");
    r.set("runner.analyze_s", analyze, "s");
    r.set("runner.dispatch_s", dispatch, "s");
    r.set("runner.queue_ms_p50", percentile(queueMs, 0.5), "ms");
    r.set("runner.capture_overhead_s", simulate - bareSimSec, "s");
    r.set("runner.simulations", double(simulations), "count");
    r.set("runner.passes", double(passes), "count");

    const RunCache::Counters c = engine.cache().counters();
    const std::uint64_t lookups = c.captureHits + c.captureMisses;
    r.set("runner.cache_lookups", double(lookups), "count");
    r.set("runner.cache_hit_ratio",
          lookups == 0 ? 0.0 : double(c.captureHits) / double(lookups),
          "ratio");
    r.set("runner.retained_mb",
          double(engine.cache().retainedBytes()) / double(1 << 20), "MB");
    r.set("runner.evictions", double(c.captureEvictions), "count");
}

std::vector<double>
reportSimLayer(Result &r, const std::vector<SimStream> &streams)
{
    obs::Span span("bench.sim_layer", "bench");
    std::vector<double> secs;
    double total = 0.0;
    std::uint64_t instrs = 0;
    for (const SimStream &s : streams) {
        ExecProfile profile(s.program->textSize());
        Machine m(*s.program, *s.input);
        const auto t0 = Clock::now();
        m.run(&profile, s.maxInstrs);
        secs.push_back(secondsSince(t0));
        total += secs.back();
        instrs += profile.total();
    }
    r.set("sim.minstr_per_s", total > 0.0 ? 1e-6 * double(instrs) / total
                                          : 0.0,
          "Minstr/s");
    return secs;
}

namespace {

/** Pass-1 profile plus an in-memory copy of the block stream. */
class RecordSink : public TraceSink
{
  public:
    explicit RecordSink(const Program &prog) : profile(prog.textSize()) {}

    void
    onInstr(const DynInstr &di) override
    {
        profile.onInstr(di);
        stream.push_back(di);
    }

    ExecProfile profile;
    std::vector<DynInstr> stream;
};

constexpr std::size_t kBlock = 256;

/** Feed @p stream to @p fn in kBlock-sized spans; returns seconds. */
template <typename Fn>
double
timeBlocks(const std::vector<DynInstr> &stream, Fn &&fn)
{
    const auto t0 = Clock::now();
    for (std::size_t at = 0; at < stream.size(); at += kBlock) {
        const std::size_t n = std::min(kBlock, stream.size() - at);
        fn(std::span<const DynInstr>(stream.data() + at, n), at);
    }
    return secondsSince(t0);
}

} // namespace

void
reportRoleSplit(Result &r, bool tiny)
{
    obs::Span span("bench.role_split", "bench");
    const std::uint64_t budget = tiny ? 50'000 : 300'000;
    const int reps = tiny ? 1 : 3;
    constexpr PredictorKind kinds[] = {PredictorKind::LastValue,
                                       PredictorKind::Stride2Delta,
                                       PredictorKind::Context};
    double predictSec[3] = {};
    double graphSec = 0.0;
    double arcsSec = 0.0;
    double fullSec = 0.0;
    double fullNoInfluenceSec = 0.0;
    std::uint64_t instrs = 0;

    for (const char *name : {"compress", "gcc", "li", "swim"}) {
        const Workload &w = findWorkload(name);
        const Program prog = assemble(w.source, w.name);
        RecordSink rec(prog);
        Machine(prog, w.makeInput(kDefaultWorkloadSeed)).run(&rec, budget);
        const std::vector<DynInstr> &stream = rec.stream;
        instrs += stream.size();
        std::vector<PredByte> ann(stream.size());

        // Best of reps per role; every rep uses fresh instances.
        auto best = [&](auto &&once) {
            double b = std::numeric_limits<double>::infinity();
            for (int i = 0; i < reps; ++i)
                b = std::min(b, once());
            return b;
        };
        for (int k = 0; k < 3; ++k) {
            predictSec[k] += best([&] {
                DpgConfig cfg;
                cfg.kind = kinds[k];
                DpgAnalyzer a(prog, rec.profile, cfg,
                              DpgRole{true, false, false});
                return timeBlocks(stream, [&](auto block, std::size_t at) {
                    a.predictBlock(block, ann.data() + at);
                });
            });
        }
        // ann now holds the context predictor's annotations.
        auto bookkeeping = [&](DpgRole role) {
            return best([&] {
                DpgAnalyzer a(prog, rec.profile, DpgConfig{}, role);
                const double sec = timeBlocks(
                    stream, [&](auto block, std::size_t at) {
                        a.analyzeAnnotatedBlock(block, ann.data() + at);
                    });
                a.takeStats();
                return sec;
            });
        };
        graphSec += bookkeeping(DpgRole{false, true, false});
        arcsSec += bookkeeping(DpgRole{false, false, true});
        auto full = [&](bool influence) {
            return best([&] {
                DpgConfig cfg;
                cfg.trackInfluence = influence;
                DpgAnalyzer a(prog, rec.profile, cfg);
                const double sec = timeBlocks(
                    stream, [&](auto block, std::size_t) {
                        a.onBlock(block);
                    });
                a.takeStats();
                return sec;
            });
        };
        fullSec += full(true);
        fullNoInfluenceSec += full(false);
    }

    const double per = 1e9 / double(instrs);
    r.set("pred.last_ns_per_instr", predictSec[0] * per, "ns");
    r.set("pred.stride_ns_per_instr", predictSec[1] * per, "ns");
    r.set("pred.context_ns_per_instr", predictSec[2] * per, "ns");
    r.set("dpg.graph_ns_per_instr", graphSec * per, "ns");
    r.set("dpg.arcs_ns_per_instr", arcsSec * per, "ns");
    r.set("dpg.full_ns_per_instr", fullSec * per, "ns");
    r.set("dpg.influence_ns_per_instr",
          (fullSec - fullNoInfluenceSec) * per, "ns");
    r.set("dpg.role_gap_pct",
          100.0 * (predictSec[2] + graphSec + arcsSec - fullSec) / fullSec,
          "%");
}

void
reportSampleLayer(Result &r, const SampledResult &res)
{
    const SampledPassTiming &t = res.timing;
    double lanes = 0.0;
    for (double s : res.laneSeconds)
        lanes += s;
    r.set("sample.profile_s", t.simulateSec, "s");
    r.set("sample.checkpoint_s", t.checkpointSec, "s");
    r.set("sample.fastforward_s", t.fastForwardSec, "s");
    r.set("sample.measure_s", t.dispatchSec + lanes, "s");
    r.set("sample.measured_instrs", double(t.sampledInstrs), "count");
    r.set("sample.checkpoint_mb", double(t.checkpointBytes) / double(1 << 20),
          "MB");
}

void
probeSampleLayer(Result &r)
{
    obs::Span span("bench.sample_probe", "bench");
    const Workload &w = findWorkload("m88ksim");
    const Program prog = assemble(w.source, w.name);
    SampleOptions geometry;
    geometry.intervalLen = 200'000;
    geometry.warmupLen = 20'000;
    geometry.maxPhases = 2;
    reportSampleLayer(r, runSampledAnalysis(prog, w.makeInput(0), 2'000'000,
                                            {DpgConfig{}}, geometry, 1));
}

} // namespace ppm::perfbench
