/**
 * @file
 * The streaming Dynamic Prediction Graph analyzer — the paper's model.
 *
 * Consumes the dynamic instruction stream and labels every node
 * (dynamic instruction) and arc (true dependence) with prediction
 * outcomes, classifying generation, propagation, and termination of
 * predictability, exactly as defined in Sec. 2 of the paper. The full
 * graph is never materialized: state is kept only for *live* values
 * (one per register, one per written memory word), and counters are
 * folded in as values die.
 *
 * Requires a pass-1 ExecProfile of the same deterministic run so that
 * write-once producers (<wl:...> arcs) can be recognized on the fly.
 */

#ifndef PPM_DPG_DPG_ANALYZER_HH
#define PPM_DPG_DPG_ANALYZER_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "asmr/program.hh"
#include "dpg/arc_stats.hh"
#include "dpg/branch_stats.hh"
#include "dpg/influence.hh"
#include "dpg/node_stats.hh"
#include "dpg/pending_arena.hh"
#include "dpg/sequence_stats.hh"
#include "dpg/tree_stats.hh"
#include "dpg/unpred_stats.hh"
#include "pred/predictor_bank.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"
#include "support/paged_table.hh"

namespace ppm {

namespace verify {
class DifferentialBank;
class InvariantChecker;
} // namespace verify

namespace obs {
class Histogram;
} // namespace obs

/**
 * Per-instruction predictor-outcome annotation, the hand-off between a
 * predict-role analyzer and a bookkeeping-role one (see DpgRole).
 * Bits 0-2: input slot 0-2 predicted; bit 3: the output (value or
 * branch) predicted. One byte per dynamic instruction fully
 * determines every downstream bookkeeping decision.
 */
using PredByte = std::uint8_t;

constexpr PredByte
predInputBit(unsigned slot)
{
    return static_cast<PredByte>(1u << slot);
}

constexpr PredByte kPredOutputBit = 1u << 3;

/**
 * Which slice of the model one DpgAnalyzer instance maintains.
 *
 * The engine always runs every role at once (the default). Single
 * roles exist so the per-layer cost of the model can be measured
 * apart (perfbench's role split):
 *
 *  - predict: consult + update the PredictorBank (input/output value
 *    predictors and gshare) in stream order, emitting one PredByte
 *    per instruction. No value-state tables.
 *  - graph:   the cross-value dataflow — node/branch/sequence/tree/
 *    path/unpredictability statistics and influence propagation —
 *    driven by the annotations, in stream order.
 *  - arcs:    live-value pending-arc lists and ArcStats, plus lazy
 *    D-node counting.
 */
struct DpgRole
{
    bool predict = true;
    bool graph = true;
    bool arcs = true;

    /** Every role engaged — the serial analyzer. */
    bool full() const { return predict && graph && arcs; }
};

/** Analyzer knobs; defaults reproduce the paper's configuration. */
struct DpgConfig
{
    PredictorKind kind = PredictorKind::Context;
    PredictorConfig predictor{};
    unsigned gshareBits = 16;
    unsigned influenceCap = kDefaultInfluenceCap;
    /** Path/tree analysis can be disabled for faster label-only runs. */
    bool trackInfluence = true;

    /**
     * Differential verification: shadow every predictor update with
     * the verify/ oracles and audit the DPG invariants at finalize,
     * throwing verify::VerifyError on the first divergence. The
     * PPM_VERIFY=1 environment knob sets this on every engine job
     * (see runner/engine.cc). Costs roughly 2-4x analysis time.
     */
    bool verify = false;

    /**
     * The analyzer will see only a sub-stream of the profiled run (a
     * sampled representative interval): relax the finalize-time
     * "profile total == analyzed instructions" consistency check to
     * ">=". The full-run profile is still the right one to pass —
     * write-once classification is a whole-run property.
     */
    bool partialStream = false;
};

/** Path-analysis aggregates (paper Figs. 9 and 11). */
struct PathStats
{
    /**
     * Propagating elements influenced by each generator class
     * (multi-counted: an element on paths from two classes counts in
     * both — Fig. 9 top).
     */
    std::array<std::uint64_t, kNumGeneratorClasses> perClass{};

    /**
     * Propagating elements by exact generator-class combination
     * (single-counted — Fig. 9 bottom). Indexed by class bitmask.
     */
    std::array<std::uint64_t, 64> perCombo{};

    /** Generates influencing each propagate (Fig. 11 top). */
    LinearHistogram influenceCount{kDefaultInfluenceCap + 1};

    /** Distance to the farthest influencing generate (Fig. 11 bottom). */
    Log2Histogram influenceDistance;

    /** Total propagating elements (nodes + arcs) recorded. */
    std::uint64_t propagateElements = 0;

    /** Elements whose influence set overflowed the cap. */
    std::uint64_t saturationEvents = 0;

    /** Multiply every counter by @p k (phase-weighted merges). */
    void
    scale(std::uint64_t k)
    {
        for (std::uint64_t &c : perClass)
            c *= k;
        for (std::uint64_t &c : perCombo)
            c *= k;
        influenceCount.scale(k);
        influenceDistance.scale(k);
        propagateElements *= k;
        saturationEvents *= k;
    }

    /** Fold another partial census in (all fields are sums). */
    void
    merge(const PathStats &other)
    {
        for (std::size_t i = 0; i < perClass.size(); ++i)
            perClass[i] += other.perClass[i];
        for (std::size_t i = 0; i < perCombo.size(); ++i)
            perCombo[i] += other.perCombo[i];
        influenceCount.merge(other.influenceCount);
        influenceDistance.merge(other.influenceDistance);
        propagateElements += other.propagateElements;
        saturationEvents += other.saturationEvents;
    }
};

/** Everything one (workload, predictor) model run produces. */
struct DpgStats
{
    std::string workload;
    PredictorKind kind = PredictorKind::Context;

    std::uint64_t dynInstrs = 0;

    /** D nodes created for initial data / untouched memory / registers. */
    std::uint64_t lazyDataNodes = 0;

    /** D nodes delivered through `in` instructions. */
    std::uint64_t inputDataNodes = 0;

    NodeStats nodes;
    ArcStats arcs;
    BranchStats branches;
    SequenceStats sequences;
    TreeStats trees;
    PathStats paths;

    /** Unpredictability-origin census (our Sec.-6 extension). */
    UnpredStats unpred;

    double gshareAccuracy = 0.0;

    /**
     * Post-warmup gshare lookup/hit counts (set by takeStats; equal
     * to the bank's totals when no warmup ran). Sampled merges sum
     * these across representatives and recompute gshareAccuracy from
     * the sums, so the weighted accuracy is exact rather than an
     * average of per-interval ratios.
     */
    std::uint64_t gshareLookups = 0;
    std::uint64_t gshareHits = 0;

    /** Table-1 node count: dynamic instructions + lazy D nodes. */
    std::uint64_t
    totalNodes() const
    {
        return dynInstrs + lazyDataNodes;
    }

    /** All D nodes (lazy + input-stream). */
    std::uint64_t
    dataNodes() const
    {
        return lazyDataNodes + inputDataNodes;
    }

    /** Combined node+arc denominator used by the paper's percentages. */
    std::uint64_t
    totalElements() const
    {
        return totalNodes() + arcs.total();
    }

    /**
     * Weight this run-slice by @p k — it stands for k sampled
     * intervals of the same phase. Every counter (including
     * sequences, trees, and the gshare lookup/hit tallies) multiplies
     * by k; gshareAccuracy is a ratio and stays put.
     */
    void
    scaleBy(std::uint64_t k)
    {
        dynInstrs *= k;
        lazyDataNodes *= k;
        inputDataNodes *= k;
        nodes.scale(k);
        arcs.scale(k);
        branches.scale(k);
        sequences.scale(k);
        trees.scale(k);
        paths.scale(k);
        unpred.scale(k);
        gshareLookups *= k;
        gshareHits *= k;
    }

    /**
     * Fold a weighted representative-interval run into this
     * accumulator (phase-sampled merges, DESIGN.md Sec. 13). Every
     * statistic is a plain sum — including sequences and trees,
     * which a sampled run scopes to one interval per lane — so
     * intervals merge in any order to the same totals; gshareAccuracy
     * is recomputed from the summed lookup/hit tallies.
     */
    void
    mergeSampled(const DpgStats &other)
    {
        dynInstrs += other.dynInstrs;
        lazyDataNodes += other.lazyDataNodes;
        inputDataNodes += other.inputDataNodes;
        nodes.merge(other.nodes);
        arcs.merge(other.arcs);
        branches.merge(other.branches);
        sequences.merge(other.sequences);
        trees.merge(other.trees);
        paths.merge(other.paths);
        unpred.merge(other.unpred);
        gshareLookups += other.gshareLookups;
        gshareHits += other.gshareHits;
        gshareAccuracy =
            gshareLookups == 0
                ? 0.0
                : static_cast<double>(gshareHits) /
                      static_cast<double>(gshareLookups);
    }
};

/** The streaming model implementation. */
class DpgAnalyzer : public TraceSink
{
  public:
    /**
     * @p profile must come from a pass-1 run of the identical
     * program + input (checked via instruction totals at finalize
     * time: takeStats() throws std::runtime_error on a mismatch).
     */
    DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                const DpgConfig &config = DpgConfig{});

    /**
     * Run the model with a caller-supplied predictor bank (e.g. a
     * user-defined ValuePredictor implementation — see
     * examples/custom_predictor.cpp). @p config's kind is ignored.
     */
    DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                PredictorBank bank,
                const DpgConfig &config = DpgConfig{},
                const DpgRole &role = DpgRole{});

    /**
     * Role-restricted analyzer (see DpgRole). Differential
     * verification is only supported on full-role instances;
     * cfg.verify on a partial role is rejected with
     * std::invalid_argument.
     */
    DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                const DpgConfig &config, const DpgRole &role);

    ~DpgAnalyzer();

    void onInstr(const DynInstr &di) override;

    /**
     * Batched entry point (fused lanes, imported traces): analyzes
     * each instruction exactly as onInstr would — output is
     * byte-identical — while prefetching the
     * predictor-table and value-table lines the next few
     * instructions will touch.
     */
    void onBlock(std::span<const DynInstr> block) override;

    void onRunEnd() override;

    /**
     * Flush all live values and return the accumulated statistics.
     * The analyzer must not be fed further instructions afterwards.
     */
    DpgStats takeStats();

    /**
     * Predict-role entry point: run the predictor bank over @p block
     * in stream order, writing one PredByte per instruction into
     * @p ann (block.size() bytes). The call sequence into the bank is
     * exactly the serial analyzer's, so the annotations — and the
     * bank's final state — are byte-identical to a serial run.
     */
    void predictBlock(std::span<const DynInstr> block, PredByte *ann);

    /**
     * Bookkeeping-role entry point: analyze @p block using the
     * annotations a predict-role instance produced, engaging only
     * this instance's role (graph or arcs, not both).
     */
    void analyzeAnnotatedBlock(std::span<const DynInstr> block,
                               const PredByte *ann);

    /**
     * Warm-up entry point for sampled runs: feed @p block through the
     * predictor bank only — tables and gshare train in stream order —
     * without touching any statistic, value table, or the invariant
     * checker. Legal on any instance whose role includes predict
     * (including the full-role serial analyzer, unlike predictBlock).
     * Follow with markWarmupEnd() before the measured stream.
     */
    void warmupBlock(std::span<const DynInstr> block);

    /**
     * Snapshot the branch-predictor tallies so takeStats() reports
     * gshareLookups/gshareHits (and gshareAccuracy) over the measured
     * stream only, excluding warm-up lookups.
     */
    void markWarmupEnd();

    /** Access to the predictor bank (for tests/ablations). */
    PredictorBank &bank() { return bank_; }

    /** The differential bank, when cfg.verify is on (tests). */
    const verify::DifferentialBank *differentialBank() const
    {
        return diff_.get();
    }

    /** Inline PendingArc records per live value before arena spill.
     *  2 covers the overwhelming majority of lists (see the per-lane
     *  dpg.pending_arcs_per_value.<pred> histograms and DESIGN.md
     *  Sec. 9). */
    static constexpr unsigned kPendingInline = 2;

  private:
    /**
     * Model state of one live value (register or memory word).
     * Deferred arcs live in a small inline buffer; lists longer than
     * kPendingInline spill into the analyzer's PendingArena as an
     * index-linked chain — no heap allocation per live value.
     */
    struct ValueInfo
    {
        bool live = false;
        bool isData = false;
        bool outputPredicted = false;
        bool writeOnce = false;

        /** Unpredictability origins (valid when !outputPredicted). */
        std::uint8_t unpredMask = 0;

        /** PendingArc records used in the inline buffer. */
        std::uint8_t pendingCount = 0;

        /** Head of the spill chain in the arena (kNil when none). */
        std::uint32_t spillHead = PendingArena::kNil;

        std::array<PendingArc, kPendingInline> pendingInline{};

        InfluenceSet influence;
    };

    /** Resolve + flush a dying value's deferred arcs. */
    void killValue(ValueInfo &vi);

    /** Live value in a register, lazily a D node for untouched regs. */
    ValueInfo &regValue(RegIndex reg);

    /** Live value in a memory word, lazily a D node when untouched. */
    ValueInfo &memValue(Addr addr);

    /** Append one deferred arc record on @p vi toward @p consumer. */
    void appendPending(ValueInfo &vi, StaticId consumer,
                       NodeId seq, ArcLabel label);

    /** Record Fig. 9 / Fig. 11 entries for one propagating element. */
    void recordPropagateElement(std::uint8_t class_mask, unsigned nrefs,
                                std::uint32_t max_depth, bool saturated);

    /** The per-instruction model step (onInstr/onBlock body). */
    void analyzeInstr(const DynInstr &di);

    /**
     * The role-parameterized model step. The serial path instantiates
     * every role at once (analyzeInstr); role-restricted instances
     * instantiate their slice. Predict writes @p ann; the other roles
     * read it.
     */
    template <bool Predict, bool Graph, bool Arcs>
    void analyzeInstrImpl(const DynInstr &di, PredByte &ann);

    /** Warm the lines @p di will touch (block path, far stage). */
    void prefetchShallow(const DynInstr &di);

    /** Predict-role far stage: bank lines only, no value tables. */
    void prefetchPredictors(const DynInstr &di);

    /** Second-stage prefetch (FCM level-2, near stage). */
    void prefetchDeep(const DynInstr &di);

    const Program &prog_;
    const ExecProfile &profile_;
    DpgConfig cfg_;
    DpgRole role_;
    PredictorBank bank_;
    DpgStats stats_;
    bool finalized_ = false;

    /** Gshare tallies at markWarmupEnd() (0,0 when no warmup ran). */
    std::uint64_t warmupLookups_ = 0;
    std::uint64_t warmupHits_ = 0;

    /** Differential verification state (non-null iff cfg.verify). */
    std::unique_ptr<verify::DifferentialBank> diff_;
    std::unique_ptr<verify::InvariantChecker> inv_;

    std::array<ValueInfo, kNumRegs> regs_;

    /** Live memory values: paged, hash-free, word-granular (addr>>3). */
    PagedTable<ValueInfo> mem_;

    /** Spill storage for pending-arc chains. */
    PendingArena arena_;

    /** Values whose pending list spilled past the inline buffer. */
    std::uint64_t spillValues_ = 0;

    /** This lane's influence-union dedup telemetry (thread-confined;
     *  folded into the registry per predictor lane at takeStats). */
    InfluenceMergeTallies mergeTallies_;

    /** Run onBlock's prefetch pipeline (predictors opted in). */
    bool blockPrefetch_ = false;

    /** Pending-arc list length at kill time (obs; null when off). */
    obs::Histogram *pendingHist_ = nullptr;

    /** Scratch for node-output influence construction. */
    InfluenceSet scratch_;
};

} // namespace ppm

#endif // PPM_DPG_DPG_ANALYZER_HH
