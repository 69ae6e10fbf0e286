/**
 * @file
 * Shared plumbing of the ppm benchmark driver (ppm_perfbench): run
 * options, the metric sink every workload fills, timing and percentile
 * helpers, and the per-layer harnesses in layers.cc.
 *
 * The driver touches the library only through its public entry points
 * (ExperimentEngine, serve::Server/Client, runSampledAnalysis,
 * Machine::run, DpgAnalyzer roles, assemble, the figure printers) and
 * times those calls from here, so nothing under src/ changes.
 */

#ifndef PPM_PERFBENCH_BENCH_HH
#define PPM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asmr/program.hh"
#include "dpg/dpg_analyzer.hh"
#include "report/figure_report.hh"
#include "runner/engine.hh"
#include "serve/client.hh"
#include "workloads/workload.hh"

namespace ppm::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Set-up takes micro- to milliseconds, so one sample would be noise:
 * each run repeats it until half a second is spent (at least 5, at
 * most 200 times) and reports the median.
 */
inline bool
moreSetups(const std::vector<double> &setups)
{
    double spent = 0.0;
    for (double s : setups)
        spent += s;
    return setups.size() < 5 || (setups.size() < 200 && spent < 0.5);
}

/** Command-line options of one ppm_perfbench run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;

    /** Shrink every workload to a smoke size (selftest.py). */
    bool tiny = false;

    /** Also run the per-layer harnesses (the traced run). */
    bool layers = false;

    /**
     * Where the output run.py digests goes: paper_suite's rendered
     * figure text, sampled_100m's fingerprint.
     */
    std::string digestOut;

    /** Scratch directory for the daemon's socket. */
    std::string workDir = ".";
};

/** Everything one run reports; main.cc prints it as one JSON line. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one checked operation; @p ok false marks it failed. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/**
 * Linear-interpolated percentile (@p q in [0,1]) of @p values; 0 for
 * an empty set.
 */
double percentile(std::vector<double> values, double q);

/** Process high-water resident set, MiB. */
double peakRssMb();

/**
 * The workload input seed for benchmark seed @p seed. Seed 0 is the
 * paper drivers' default input, so its output can be checked against
 * their recorded digest.
 */
std::uint64_t inputSeed(std::uint64_t seed);

/** Median of @p values (0 for an empty set). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * runner.* layer metrics summed from the StageTiming of every cell
 * @p engine completed from history entry @p from on, plus the
 * RunCache counters. @p bareSimSec is the bare-simulation time of the
 * same streams (capture overhead = simulate - bare).
 */
void reportRunnerLayer(Result &r, ExperimentEngine &engine,
                       std::size_t from, double bareSimSec);

/** One stream the sim layer is timed over. */
struct SimStream
{
    const Program *program = nullptr;
    const std::vector<Value> *input = nullptr;
    std::uint64_t maxInstrs = 0;
};

/**
 * Bare Machine::run with an ExecProfile sink over @p streams; sets
 * sim.minstr_per_s and returns the seconds it took per stream.
 */
std::vector<double> reportSimLayer(Result &r,
                                   const std::vector<SimStream> &streams);

/**
 * The DpgRole split harness: pred.*_ns_per_instr, dpg.*_ns_per_instr
 * and dpg.role_gap_pct over a fixed cell set.
 */
void reportRoleSplit(Result &r, bool tiny);

/**
 * sample.* layer metrics from one phase-sampled pass. Workloads
 * without a sampled pass of their own probe the layer with a small
 * fixed one (a 2M-instruction m88ksim cell).
 */
void reportSampleLayer(Result &r, const SampledResult &res);
void probeSampleLayer(Result &r);

/** Client-side view of one served request. */
struct ServedRequest
{
    enum Kind
    {
        Analyze, ///< A built-in workload.
        Family,  ///< A scenario-family program.
        Trace    ///< An inline branch trace.
    } kind = Analyze;
    std::string name;       ///< Workload, family or trace name.
    std::uint64_t seed = 0; ///< Input or family seed; 0 for traces.
    std::string line{};     ///< The request line sent.
    double roundTripSec = 0.0;
    std::string response{};

    /** The fingerprint's source label, as the daemon renders it. */
    std::string
    label() const
    {
        const char *intake = kind == Analyze  ? "workload:"
                             : kind == Family ? "family:"
                                              : "trace:";
        return intake + name;
    }

    /** The distinct cell this request analyzes. */
    std::string key() const { return label() + ":" + std::to_string(seed); }

    /** The name the daemon assembles the program under. */
    std::string
    programName() const
    {
        return kind == Family ? name + "-" + std::to_string(seed) : name;
    }
};

/**
 * serve.* layer metrics from client-measured round trips and the
 * response timing blocks; @p overloaded is the server's count.
 */
void reportServeLayer(Result &r, const std::vector<ServedRequest> &reqs,
                      std::uint64_t overloaded);

/**
 * Run @p reqs over @p clients as closed loops: each connection sends
 * its next request only after the previous reply. Fills round trips
 * and responses; returns when every request is answered.
 */
void serveSession(std::vector<serve::Client> &clients,
                  std::vector<ServedRequest> &reqs);

/**
 * Workloads that run no server of their own probe the serve layer
 * with a short fixed session (analyze + trace requests, one client).
 */
void probeServeLayer(Result &r, const Options &opts);

/** Every figure printer over @p runs (the report layer's work). */
void renderFigures(std::ostream &os, const std::vector<RunResult> &runs);

/** Read a whole file; throws std::runtime_error when missing. */
std::string slurpFile(const std::string &path);

/** Workload entry points (one translation unit each). */
Result runPaperSuite(const Options &opts);
Result runServeMixed(const Options &opts);
Result runSampled100m(const Options &opts);

} // namespace ppm::perfbench

#endif // PPM_PERFBENCH_BENCH_HH
