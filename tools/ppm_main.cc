/**
 * @file
 * `ppm` — the command-line front end to the predictability model.
 *
 *     ppm asm <file.s>                     assemble + report
 *     ppm disasm <file.s>                  assembled listing
 *     ppm run <file.s> [opts]              execute a program
 *     ppm analyze <file.s|workload> [opts] run the DPG model
 *     ppm graph <file.s|workload> [opts]   emit a Fig.3-style DPG
 *                                          window as Graphviz dot
 *     ppm workloads                        list the SPEC95 analogs
 *     ppm metrics [workload] [opts]        run one instrumented
 *                                          analysis and dump every
 *                                          metric (--json for the
 *                                          "ppm-metrics-v1" document)
 *     ppm fuzz [opts]                      sweep seeded scenario
 *                                          families through the model
 *                                          under verification and emit
 *                                          a fingerprint corpus
 *                                          (--list for the families)
 *     ppm import <file.trace>              analyze an external branch
 *                                          trace (CBP/ChampSim-style
 *                                          text records, plain or
 *                                          gzip'd) and emit its
 *                                          fingerprint
 *     ppm converge <workload> [opts]       sampled-vs-full
 *                                          convergence curves
 *                                          (ppm-converge-v1; exit 1
 *                                          when any per-predictor
 *                                          accuracy error exceeds
 *                                          --threshold percent)
 *     ppm serve [opts]                     resident analysis daemon
 *                                          speaking ppm-serve-v1 over
 *                                          a local socket
 *     ppm client [opts]                    send requests to a daemon
 *     ppm --version                        tool + schema versions
 *
 * Exit codes (uniform across subcommands):
 *     0  success
 *     1  analysis / verification / request failure
 *     2  usage or environment error (bad flags, malformed PPM_* vars)
 *
 * Common options:
 *     --max N            dynamic instruction budget (default 4000000)
 *     --predictor P      last | stride | context   (default context)
 *     --all-predictors   (analyze) run and tabulate all three
 *     --seed S           workload input seed (a workload target only)
 *     --input v,v,...    inline input stream (a file.s target only)
 *     --input-file F     input stream, one value per line (a file.s
 *                        target only; not with --input)
 *     --trace            (run) print every executed instruction
 *     --report R,...     (analyze) any of: overall, gen, prop, term,
 *                        paths, trees, sequences, branches, unpred,
 *                        critical, json   (default: overall)
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include "analysis/experiment.hh"
#include "analysis/figures.hh"
#include "obs/obs.hh"
#include "runner/engine.hh"
#include "runner/intake.hh"
#include "asmr/assembler.hh"
#include "dpg/dpg_graph.hh"
#include "isa/disasm.hh"
#include "report/figure_report.hh"
#include "report/json_emitter.hh"
#include "runner/sampled_run.hh"
#include "runner/trace_import.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/machine.hh"
#include "support/cli_args.hh"
#include "support/env.hh"
#include "support/mini_json.hh"
#include "support/version.hh"
#include "support/string_utils.hh"
#include "support/table_printer.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"
#include "verify/fuzz_farm.hh"
#include "verify/invariant_checker.hh"
#include "workloads/workload.hh"

namespace {

using namespace ppm;

constexpr std::uint64_t kMaxPort = 65535;

[[noreturn]] void
usage(const std::string &message = "")
{
    if (!message.empty())
        std::cerr << "ppm: " << message << "\n\n";
    std::cerr <<
        "usage:\n"
        "  ppm asm <file.s>\n"
        "  ppm disasm <file.s>\n"
        "  ppm run TARGET [--max N] [--trace]\n"
        "  ppm analyze TARGET [--predictor last|stride|context]\n"
        "          [--all-predictors] [--max N]\n"
        "          [--report overall,paths,...]\n"
        "  ppm graph TARGET [--predictor P] [--window N]\n"
        "  ppm workloads\n"
        "  ppm metrics [TARGET] [--json]\n"
        "          [--predictor last|stride|context] [--max N]\n"
        "  ppm fuzz [--families a,b,...] [--seeds LO-HI] [--slice]\n"
        "          [--no-verify] [--out corpus.json] [--list]\n"
        "  ppm import <file.trace[.gz]> [--verify] [--out fp.json]\n"
        "  ppm converge TARGET\n"
        "          [--budgets N,N,...] [--predictor all|last|...]\n"
        "          [--interval N] [--warmup N] [--phases N]\n"
        "          [--threshold PCT]\n"
        "          [--out curves.json] [--csv curves.csv]\n"
        "  ppm serve (--socket PATH | --port N) [--max-inflight N]\n"
        "          [--max N] [--cap N] [--retain-mb N]\n"
        "  ppm client (--socket PATH | --port N) REQUEST\n"
        "          [--predictor all|last|stride|context] [--max N]\n"
        "          [--id ID] [--count N]\n"
        "  ppm --version\n"
        "\n"
        "TARGET, exactly one of:\n"
        "  <workload-name> [--seed S]\n"
        "  <file.s> [--input v,v,... | --input-file F]\n"
        "REQUEST, exactly one of:\n"
        "  --workload W [--seed S] | --family F [--seed S] | <file.s>\n"
        "  | --trace-file T | --stats | --ping | --shutdown | --json REQ\n";
    std::exit(2);
}

/**
 * The kinds --predictor names (@p fallback when absent); "all" only
 * where @p all allows several.
 */
std::vector<PredictorKind>
predictorOption(const CliArgs &args, const std::string &fallback,
                bool all = false)
{
    const std::string name = args.option("predictor").value_or(fallback);
    const std::vector<PredictorKind> kinds = parsePredictors(name);
    if (kinds.empty() || (!all && kinds.size() != 1))
        usage("unknown predictor '" + name + "'");
    return kinds;
}

/** The command's @p target, a workload or file.s, as one job. */
ExperimentJob
programJob(const CliArgs &args, const std::string &target,
           RunCache &cache, std::uint64_t budget)
{
    return resolveProgram(*parseIntakeArgs(args, &target,
                                           IntakeForm::Program,
                                           args.positionals()[0]),
                          cache, budget);
}

int
cmdAsm(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("asm needs a file");
    const Program prog =
        assemble(readTextFile(args.positionals()[1]),
                 args.positionals()[1]);
    std::cout << prog.name << ": " << prog.textSize()
              << " instructions, " << prog.dataImage.size()
              << " initialized data words, " << prog.symbols.size()
              << " symbols\n";
    return 0;
}

int
cmdDisasm(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("disasm needs a file");
    const Program prog =
        assemble(readTextFile(args.positionals()[1]),
                 args.positionals()[1]);

    // Invert the symbol table for labels.
    for (StaticId i = 0; i < prog.textSize(); ++i) {
        for (const auto &[sym, value] : prog.symbols) {
            if (value == textAddr(i))
                std::cout << sym << ":\n";
        }
        std::cout << "  " << i << ":\t"
                  << disassemble(prog.text[i]) << "\n";
    }
    return 0;
}

/** Trace printer for `run --trace`. */
class TracePrinter : public TraceSink
{
  public:
    void
    onInstr(const DynInstr &di) override
    {
        std::cout << di.seq << "\t" << di.pc << "\t"
                  << disassemble(*di.instr);
        if (di.hasValueOutput())
            std::cout << "\t-> 0x" << std::hex << di.outValue
                      << std::dec;
        if (di.isBranch)
            std::cout << "\t" << (di.taken ? "taken" : "not-taken");
        std::cout << "\n";
    }
};

int
cmdRun(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("run needs a file");
    RunCache cache;
    const ExperimentJob job =
        programJob(args, args.positionals()[1], cache,
                   args.intOption("max").value_or(4'000'000));

    TracePrinter printer;
    Machine m(*job.program, *job.input);
    const StopReason reason = m.run(args.flag("trace") ? &printer : nullptr,
                                    job.config.maxInstrs);

    std::cout << (reason == StopReason::Halted
                      ? "halted"
                      : "instruction budget reached")
              << " after " << formatCount(m.instrCount())
              << " instructions\n";
    return 0;
}

int
cmdAnalyze(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("analyze needs a file or workload name");
    ExperimentEngine &engine = ExperimentEngine::shared();
    const ExperimentJob job =
        programJob(args, args.positionals()[1], engine.cache(),
                   args.intOption("max").value_or(4'000'000));
    const std::vector<PredictorKind> kinds =
        args.flag("all-predictors") ? parsePredictors("all")
                                    : predictorOption(args, "context");

    // The engine profiles once and feeds every requested predictor
    // from one re-simulation, one lane each.
    std::vector<RunResult> runs;
    for (auto &outcome : engine.run(intakeJobs(job, kinds))) {
        RunResult run;
        run.isFloat = outcome.isFloat;
        run.stats = std::move(outcome.stats);
        runs.push_back(std::move(run));
    }
    const DpgStats &s = runs.front().stats;

    const std::string reports =
        args.option("report").value_or("overall");
    for (const auto piece : splitAndTrim(reports, ',')) {
        const std::string r(piece);
        if (r == "overall") {
            printTable1(std::cout, runs);
            printFig5(std::cout, runs);
        } else if (r == "gen") {
            printFig6(std::cout, runs);
        } else if (r == "prop") {
            printFig7(std::cout, runs);
        } else if (r == "term") {
            printFig8(std::cout, runs);
        } else if (r == "paths") {
            printFig9(std::cout, runs);
        } else if (r == "trees") {
            printFig10(std::cout, s);
            printFig11(std::cout, s);
        } else if (r == "sequences") {
            printFig12(std::cout, runs);
        } else if (r == "branches") {
            printFig13(std::cout, runs);
        } else if (r == "unpred") {
            TablePrinter table(
                "Unpredicted outputs by origin (D=data, "
                "T=terminated, F=fresh)");
            table.addRow({"origin set", "count", "%"});
            for (unsigned mask = 1; mask < 8; ++mask) {
                if (s.unpred.count(mask) == 0)
                    continue;
                table.addRow(
                    {unpredMaskName(static_cast<std::uint8_t>(mask)),
                     formatCount(s.unpred.count(mask)),
                     formatDouble(100.0 *
                                      double(s.unpred.count(mask)) /
                                      double(s.unpred.total()),
                                  1)});
            }
            table.print(std::cout);
            std::cout << "\n";
        } else if (r == "json") {
            std::cout << toJson(s);
        } else if (r == "critical") {
            TablePrinter table("Critical generate sites");
            table.addRow({"pc", "instruction", "class", "generates",
                          "influenced", "longest"});
            for (const CriticalSite &site :
                 s.trees.criticalSites(10)) {
                table.addRow(
                    {std::to_string(site.pc),
                     disassemble(job.program->text[site.pc]),
                     std::string(generatorClassName(site.cls)),
                     formatCount(site.generates),
                     formatCount(site.influenced),
                     formatCount(site.longest)});
            }
            table.print(std::cout);
            std::cout << "\n";
        } else {
            usage("unknown report '" + r + "'");
        }
    }
    return 0;
}

int
cmdGraph(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("graph needs a file or workload name");
    const std::size_t window = args.intOption("window").value_or(64);
    RunCache cache;
    const ExperimentJob job =
        programJob(args, args.positionals()[1], cache, window);

    DpgGraphBuilder builder(*job.program,
                            predictorOption(args, "stride").front(),
                            window);
    Machine m(*job.program, *job.input);
    m.run(&builder, window);
    builder.writeDot(std::cout);
    return 0;
}

/**
 * `ppm metrics`: run one workload through the instrumented engine and
 * dump the whole metrics registry, as a smoke view of the
 * observability layer (README, OBSERVABILITY). PPM_METRICS/
 * PPM_TRACE_JSON are not required — the registry is force-enabled
 * here, before any instrumented component is constructed.
 */
int
cmdMetrics(const CliArgs &args)
{
    if (args.positionals().size() > 2)
        usage("metrics takes at most one workload or file");
    obs::forceEnable();

    ExperimentEngine &engine = ExperimentEngine::shared();
    engine.run(intakeJobs(
        programJob(args,
                   args.positionals().size() == 2 ? args.positionals()[1]
                                                  : "compress",
                   engine.cache(), args.intOption("max").value_or(200'000)),
        predictorOption(args, "context")));

    if (args.flag("json"))
        obs::dumpMetricsJson(std::cout);
    else
        obs::dumpMetricsText(std::cout);
    return 0;
}

/** Parse `--seeds LO-HI` (or `--seeds N` for 1..N). */
void
parseSeedRange(const std::string &spec, std::uint64_t &lo,
               std::uint64_t &hi)
{
    const std::string_view text(spec);
    const auto dash = text.find('-');
    const auto first = dash == std::string_view::npos
                           ? std::optional<std::uint64_t>(1)
                           : parseUint(text.substr(0, dash));
    const auto last = parseUint(
        dash == std::string_view::npos ? text : text.substr(dash + 1));
    if (!first || !last)
        usage("bad --seeds '" + spec + "' (want N or LO-HI)");
    lo = *first;
    hi = *last;
    if (lo > hi)
        usage("bad --seeds '" + spec + "' (LO exceeds HI)");
}

/** Emit @p document to --out when given, stdout otherwise. */
void
writeDocument(const CliArgs &args, const std::string &document)
{
    if (const auto out = args.option("out")) {
        std::ofstream f(*out);
        if (!f)
            usage("cannot write " + *out);
        f << document;
    } else {
        std::cout << document;
    }
}

int
cmdFuzz(const CliArgs &args)
{
    if (args.flag("list")) {
        TablePrinter table("Scenario families");
        table.addRow({"name", "instr bound", "description"});
        for (const verify::ScenarioFamily &f :
             verify::allFamilies()) {
            table.addRow({f.name, formatCount(f.instrBound),
                          f.description});
        }
        table.print(std::cout);
        return 0;
    }

    verify::FuzzOptions fopts;
    if (const auto fams = args.option("families")) {
        for (const auto piece : splitAndTrim(*fams, ','))
            if (!piece.empty())
                fopts.families.emplace_back(piece);
    }
    if (const auto seeds = args.option("seeds"))
        parseSeedRange(*seeds, fopts.seedLo, fopts.seedHi);
    fopts.slice = args.flag("slice");
    fopts.verify = !args.flag("no-verify");

    const verify::FuzzResult result =
        verify::runFuzzFarm(fopts, &std::cerr);

    // The corpus must validate against its own schema before anyone
    // gets to read it.
    const auto errors = verify::validateCorpus(parseJson(result.corpus));
    for (const std::string &e : errors)
        std::cerr << "corpus schema violation: " << e << "\n";
    if (!errors.empty())
        return 1;

    writeDocument(args, result.corpus);
    std::cerr << "fuzz: " << result.programs << " programs, "
              << result.fingerprints.size() << " fingerprints, "
              << result.failures.size() << " failures, "
              << formatCount(result.dynInstrs)
              << " dynamic instructions\n";
    return result.failures.empty() ? 0 : 1;
}

int
cmdImport(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("import needs a trace file");
    const Intake intake = *parseIntakeArgs(
        args, &args.positionals()[1], IntakeForm::Trace, "import");
    const ImportedTrace trace = resolveTrace(intake);

    // Pass 1 over the imported stream, then one pass feeding every
    // predictor — the same two-pass discipline as a simulated program.
    std::vector<DpgConfig> configs;
    for (PredictorKind kind : kAllPredictorKinds) {
        DpgConfig cfg;
        cfg.kind = kind;
        cfg.verify = args.flag("verify");
        configs.push_back(cfg);
    }
    const SampledResult res = analyzeImported(trace, configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto violations = verify::InvariantChecker::audit(
            res.stats[i], configs[i].trackInfluence);
        for (const std::string &v : violations)
            std::cerr << "invariant violation: " << v << "\n";
        if (!violations.empty())
            return 1;
    }

    const std::string fp =
        verify::fingerprintJson(intake.label(), intake.seedValue(),
                                res.stats);
    const auto errors = verify::validateFingerprint(parseJson(fp));
    for (const std::string &e : errors)
        std::cerr << "fingerprint schema violation: " << e << "\n";
    if (!errors.empty())
        return 1;

    writeDocument(args, fp + "\n");
    std::cerr << "import: " << formatCount(trace.stream.size())
              << " branch records, " << trace.staticBranches()
              << " static branches\n";
    return 0;
}

// The active daemon, for the SIGTERM/SIGINT handler. requestStop()
// is async-signal-safe (one atomic store + one write()).
serve::Server *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

/**
 * `ppm converge`: metric-vs-budget convergence curves validating the
 * phase-sampled scheduler (PPM_SAMPLE / runner/sampled_run.hh)
 * against full analysis. For each budget the workload is analyzed
 * twice — the exact two-pass path and the sampled path — and the
 * fingerprint accuracy metrics (output_acc_pct, gshare_acc_pct) are
 * compared per predictor. Emits a human table, optionally a
 * ppm-converge-v1 JSON document (--out) and a CSV (--csv), and fails
 * (exit 1) when any absolute error exceeds --threshold percent.
 */
int
cmdConverge(const CliArgs &args)
{
    using Clock = std::chrono::steady_clock;

    if (args.positionals().size() != 2)
        usage("converge needs a file or workload name");
    // Named, not a temporary: splitAndTrim returns views into it.
    const std::string budgetList = args.option("budgets").value_or(
        "500000,1000000,2000000,4000000");
    std::vector<std::uint64_t> budgets;
    for (const auto piece : splitAndTrim(budgetList, ',')) {
        if (piece.empty())
            continue;
        const auto budget = parseUint(piece);
        if (!budget) {
            usage("bad --budgets value '" + std::string(piece) +
                  "'");
        }
        budgets.push_back(*budget);
    }
    if (budgets.empty())
        usage("--budgets needs at least one budget");

    SampleOptions sopts;
    sopts.intervalLen = args.intOption("interval").value_or(100'000);
    sopts.warmupLen = args.intOption("warmup").value_or(50'000);
    sopts.maxPhases = static_cast<unsigned>(
        args.intOption("phases", std::numeric_limits<unsigned>::max())
            .value_or(8));
    if (!sopts.enabled() || sopts.maxPhases == 0)
        usage("--interval and --phases must be >= 1");

    double threshold = 1.0;
    if (const auto th = args.option("threshold")) {
        const char *end = th->data() + th->size();
        const auto rc = std::from_chars(th->data(), end, threshold);
        if (rc.ec != std::errc{} || rc.ptr != end ||
            !std::isfinite(threshold) || std::signbit(threshold)) {
            usage("bad --threshold '" + *th +
                  "' (want a finite percentage >= 0)");
        }
    }

    const std::vector<PredictorKind> kinds =
        predictorOption(args, "all", true);

    // Two explicitly configured engines, neither of which reads
    // PPM_SAMPLE, PPM_VERIFY or PPM_THREADS: the comparison is always
    // full versus sampled, through the pass every other command runs.
    EngineOptions fullOpts;
    fullOpts.threads = 1;
    fullOpts.verify = false;
    fullOpts.sample = SampleOptions{};
    EngineOptions sampledOpts = fullOpts;
    sampledOpts.sample = sopts;
    ExperimentEngine fullEngine(fullOpts);
    ExperimentEngine sampledEngine(sampledOpts);
    ExperimentJob job =
        programJob(args, args.positionals()[1], fullEngine.cache(), 0);

    // Fingerprint accuracy metrics (verify/fingerprint.cc): the
    // output-accuracy share of classified nodes plus the gshare hit
    // rate — the two curves the figures hinge on.
    const auto outputAcc = [](const DpgStats &s) {
        const std::uint64_t gen = s.nodes.generates();
        const std::uint64_t prop = s.nodes.propagates();
        const std::uint64_t classified =
            gen + prop + s.nodes.terminates() +
            s.nodes.count(NodeClass::UnpredFlow);
        return classified
                   ? 100.0 * double(gen + prop) / double(classified)
                   : 0.0;
    };

    TablePrinter table("Sampled-vs-full convergence (" +
                       std::string(args.positionals()[1]) + ")");
    table.addRow({"budget", "pred", "out% full", "out% samp",
                  "err", "gsh% full", "gsh% samp", "err",
                  "speedup"});

    std::string csv = "budget,predictor,output_acc_full_pct,"
                      "output_acc_sampled_pct,output_acc_err_pct,"
                      "gshare_acc_full_pct,gshare_acc_sampled_pct,"
                      "gshare_acc_err_pct,full_s,sampled_s,"
                      "speedup\n";
    JsonWriter json;
    json.beginObject()
        .key("schema").string("ppm-converge-v1")
        .key("target").string(args.positionals()[1])
        .key("interval").u64(sopts.intervalLen)
        .key("warmup").u64(sopts.warmupLen)
        .key("max_phases").u64(sopts.maxPhases)
        .key("threshold_pct").fixed(threshold, 4)
        .key("budgets").beginArray();

    double maxErr = 0.0;
    for (const std::uint64_t budget : budgets) {
        job.config.maxInstrs = budget;
        const std::vector<ExperimentJob> jobs = intakeJobs(job, kinds);
        // Full reference: the exact two-pass analysis, every
        // predictor as one lane over one stream production.
        const auto f0 = Clock::now();
        const std::vector<ExperimentOutcome> full = fullEngine.run(jobs);
        const double fullSec =
            std::chrono::duration<double>(Clock::now() - f0)
                .count();

        const auto s0 = Clock::now();
        const std::vector<ExperimentOutcome> sampled =
            sampledEngine.run(jobs);
        const double sampledSec =
            std::chrono::duration<double>(Clock::now() - s0)
                .count();
        const StageTiming &lane0 = sampled.front().timing;
        const double speedup =
            sampledSec > 0.0 ? fullSec / sampledSec : 0.0;

        json.beginObject()
            .key("budget").u64(budget)
            .key("phases").u64(lane0.phases)
            .key("sampled_instrs").u64(lane0.sampledInstrs)
            .key("full_s").fixed(fullSec, 4)
            .key("sampled_s").fixed(sampledSec, 4)
            .key("speedup").fixed(speedup, 2)
            .key("predictors").beginArray();

        for (std::size_t i = 0; i < kinds.size(); ++i) {
            const DpgStats &fs = full[i].stats;
            const DpgStats &ss = sampled[i].stats;
            const double of = outputAcc(fs);
            const double os = outputAcc(ss);
            const double gf = 100.0 * fs.gshareAccuracy;
            const double gs = 100.0 * ss.gshareAccuracy;
            const double oe = std::abs(of - os);
            const double ge = std::abs(gf - gs);
            maxErr = std::max({maxErr, oe, ge});

            const std::string kindName(predictorName(kinds[i]));
            table.addRow({formatCount(budget), kindName,
                          formatDouble(of, 2), formatDouble(os, 2),
                          formatDouble(oe, 2), formatDouble(gf, 2),
                          formatDouble(gs, 2), formatDouble(ge, 2),
                          formatDouble(speedup, 1) + "x"});
            csv += std::to_string(budget) + "," + kindName + "," +
                   formatDouble(of, 4) + "," + formatDouble(os, 4) +
                   "," + formatDouble(oe, 4) + "," +
                   formatDouble(gf, 4) + "," + formatDouble(gs, 4) +
                   "," + formatDouble(ge, 4) + "," +
                   formatDouble(fullSec, 4) + "," +
                   formatDouble(sampledSec, 4) + "," +
                   formatDouble(speedup, 2) + "\n";
            json.beginObject()
                .key("predictor").string(kindName)
                .key("output_acc_full_pct").fixed(of, 4)
                .key("output_acc_sampled_pct").fixed(os, 4)
                .key("output_acc_err_pct").fixed(oe, 4)
                .key("gshare_acc_full_pct").fixed(gf, 4)
                .key("gshare_acc_sampled_pct").fixed(gs, 4)
                .key("gshare_acc_err_pct").fixed(ge, 4)
                .endObject();
        }
        json.endArray().endObject();
    }
    const bool pass = maxErr <= threshold;
    json.endArray()
        .key("max_err_pct").fixed(maxErr, 4)
        .key("pass").boolean(pass)
        .endObject()
        .newline();

    table.print(std::cout);
    std::cout << "converge: max abs error "
              << formatDouble(maxErr, 3) << "% (threshold "
              << formatDouble(threshold, 2) << "%) — "
              << (pass ? "PASS" : "FAIL") << "\n";

    if (const auto csvPath = args.option("csv")) {
        std::ofstream f(*csvPath);
        if (!f)
            usage("cannot write " + *csvPath);
        f << csv;
    }
    if (args.option("out"))
        writeDocument(args, json.json());
    return pass ? 0 : 1;
}

int
cmdServe(const CliArgs &args)
{
    serve::ServerOptions opts;
    if (const auto s = args.option("socket"))
        opts.unixPath = *s;
    const auto port = args.intOption("port", kMaxPort);
    if (port)
        opts.port = static_cast<std::uint16_t>(*port);
    if (opts.unixPath.empty() && !port)
        usage("serve needs --socket PATH or --port N");
    if (const auto m = args.intOption(
            "max-inflight", std::numeric_limits<unsigned>::max()))
        opts.maxInflight = static_cast<unsigned>(*m);
    opts.defaultMaxInstrs =
        args.intOption("max").value_or(opts.defaultMaxInstrs);
    opts.maxInstrsCap = args.intOption("cap").value_or(opts.maxInstrsCap);
    if (const auto m = args.intOption(
            "retain-mb", std::numeric_limits<std::uint64_t>::max() >> 20))
        opts.engine.captureRetentionBytes = *m << 20;

    serve::Server server(opts);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    if (!opts.unixPath.empty())
        std::cout << "ppm serve: listening on " << opts.unixPath;
    else
        std::cout << "ppm serve: listening on 127.0.0.1:"
                  << server.port();
    std::cout << " (threads " << server.engine().threads()
              << ", max-inflight " << opts.maxInflight << ")"
              << std::endl;

    server.serveUntilStopped();
    g_server = nullptr;

    const serve::ServerStats stats = server.stats();
    std::cerr << "ppm serve: drained — " << stats.connections
              << " connections, " << stats.served << " served, "
              << stats.failed << " failed, " << stats.overloaded
              << " rejected\n";
    return 0;
}

/**
 * The request line(s) `ppm client` sends: --json REQ verbatim, or
 * --count copies of one request, ids suffixed -0, -1, ...
 */
std::vector<std::string>
clientRequestLines(const CliArgs &args)
{
    // A control flag names a request that reads no intake.
    std::string control;
    for (const char *flag : {"json", "ping", "stats", "shutdown"}) {
        if (!args.flag(flag))
            continue;
        if (!control.empty())
            throw CliError(control + " conflicts with --" + flag);
        control = std::string("--") + flag;
    }
    const std::string *target = args.positionals().size() > 1
                                    ? &args.positionals()[1]
                                    : nullptr;
    serve::ServeRequest req;
    if (control.empty()) {
        req.intake = *parseIntakeArgs(args, target, IntakeForm::Request,
                                      "client");
        req.kind = req.intake.kind == IntakeKind::Trace
                       ? serve::RequestKind::Trace
                       : serve::RequestKind::Analyze;
        req.predictors = predictorOption(args, "all", true);
        req.maxInstrs = args.intOption("max");
    } else {
        parseIntakeArgs(args, target, IntakeForm::None, control);
        if (control == "--json")
            return {*args.option("json")};
        req.kind = control == "--ping"    ? serve::RequestKind::Ping
                   : control == "--stats" ? serve::RequestKind::Stats
                                          : serve::RequestKind::Shutdown;
    }

    const std::uint64_t count = args.intOption("count").value_or(1);
    const std::string baseId = args.option("id").value_or("req");
    std::vector<std::string> lines;
    for (std::uint64_t i = 0; i < count; ++i) {
        req.id = count == 1 ? baseId : baseId + "-" + std::to_string(i);
        lines.push_back(serve::writeRequest(req));
    }
    return lines;
}

int
cmdClient(const CliArgs &args)
{
    // Every request is checked before anything is sent.
    const std::vector<std::string> lines = clientRequestLines(args);
    serve::Client client;
    if (const auto s = args.option("socket"))
        client = serve::Client::connectUnix(*s);
    else if (const auto p = args.intOption("port", kMaxPort))
        client = serve::Client::connectTcp(
            static_cast<std::uint16_t>(*p));
    else
        usage("client needs --socket PATH or --port N");

    for (const std::string &line : lines)
        client.sendLine(line);

    bool allOk = true;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto response = client.recvLine();
        if (!response) {
            std::cerr << "client: connection closed after " << i
                      << " of " << lines.size() << " responses\n";
            return 1;
        }
        std::cout << *response << "\n";
        if (!serve::responseOk(*response))
            allOk = false;
    }
    return allOk ? 0 : 1;
}

int
cmdVersion()
{
    std::cout << "ppm " << kPpmVersion << "\n";
    for (const char *schema : kPpmSchemas)
        std::cout << "schema " << schema << "\n";
    return 0;
}

int
cmdWorkloads()
{
    TablePrinter table("Built-in SPEC95-analog workloads");
    table.addRow({"name", "set", "approx dyn instrs", "input words"});
    for (const Workload &w : allWorkloads()) {
        table.addRow({w.name, w.isFloat ? "FP" : "INT",
                      formatCount(w.approxInstrs),
                      formatCount(w.makeInput(kDefaultWorkloadSeed)
                                      .size())});
    }
    table.print(std::cout);
    return 0;
}

/** One subcommand: its entry point and every option it reads. */
struct Command
{
    std::string name;
    int (*run)(const CliArgs &);
    std::vector<std::string> values; ///< Options that take a value.
    std::vector<std::string> flags;  ///< Options that stand alone.
};

/**
 * The subcommand table. The lists name every option its command
 * reads (the intake options come from the intake parser's list);
 * main parses the command line with that command's value-taking
 * options and rejects anything else before it runs.
 */
const std::vector<Command> &
commands()
{
    constexpr IntakeForm program = IntakeForm::Program;
    static const std::vector<Command> table = {
        {"asm", cmdAsm, {}, {}},
        {"disasm", cmdDisasm, {}, {}},
        {"run", cmdRun, intakeOptions(program, {"max"}), {"trace"}},
        {"analyze", cmdAnalyze,
         intakeOptions(program, {"max", "predictor", "report"}),
         {"all-predictors"}},
        {"graph", cmdGraph,
         intakeOptions(program, {"window", "predictor"}), {}},
        {"workloads", [](const CliArgs &) { return cmdWorkloads(); },
         {}, {}},
        {"metrics", cmdMetrics, intakeOptions(program, {"max", "predictor"}),
         {"json"}},
        {"fuzz", cmdFuzz, {"families", "seeds", "out"},
         {"list", "slice", "no-verify"}},
        {"import", cmdImport, {"out"}, {"verify"}},
        {"converge", cmdConverge,
         intakeOptions(program, {"budgets", "interval", "warmup", "phases",
                                 "threshold", "predictor", "csv", "out"}),
         {}},
        {"serve", cmdServe,
         {"socket", "port", "max-inflight", "max", "cap", "retain-mb"},
         {}},
        {"client", cmdClient,
         intakeOptions(IntakeForm::Request,
                       {"socket", "port", "json", "predictor", "max",
                        "count", "id"}),
         {"ping", "stats", "shutdown"}},
        {"version", [](const CliArgs &) { return cmdVersion(); }, {},
         {}},
    };
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    // The command is the first token that is not an option; its row
    // says which options take a value, so `metrics --json gcc` keeps
    // gcc as its target while `client --json REQ` reads REQ.
    const auto first = std::find_if(argv + 1, argv + argc,
                                    [](std::string_view tok) {
                                        return !startsWith(tok, "--");
                                    });
    const std::string name = first == argv + argc ? "" : *first;
    const auto cmd =
        std::find_if(commands().begin(), commands().end(),
                     [&](const Command &c) { return c.name == name; });
    const bool known = cmd != commands().end();
    const CliArgs args(argc, argv,
                       known ? cmd->values : std::vector<std::string>{});
    if (args.flag("version"))
        return cmdVersion();
    if (args.positionals().empty())
        usage();
    if (!known || args.positionals()[0] != name)
        usage("unknown command '" + args.positionals()[0] + "'");
    // Querying an option marks it consumed, so what is left over is
    // every option this command does not read.
    for (const auto *list : {&cmd->values, &cmd->flags}) {
        for (const std::string &opt : *list)
            args.flag(opt);
    }
    const std::vector<std::string> unknown = args.unconsumedOptions();
    if (!unknown.empty()) {
        std::string list;
        for (const std::string &opt : unknown)
            list += (list.empty() ? "--" : ", --") + opt;
        usage(name + " does not take " + list);
    }

    try {
        return cmd->run(args);
    } catch (const CliError &e) {
        usage(e.what());
    } catch (const EnvError &e) {
        std::cerr << "environment error: " << e.what() << "\n";
        return 2;
    } catch (const AsmError &e) {
        std::cerr << "assembly error: " << e.what() << "\n";
        return 1;
    } catch (const SimError &e) {
        std::cerr << "simulation trap: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
