#include "dpg/dpg_analyzer.hh"

#include <cassert>
#include <stdexcept>

#include "obs/obs.hh"
#include "verify/differential_bank.hh"
#include "verify/invariant_checker.hh"

namespace ppm {

DpgAnalyzer::DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                         const DpgConfig &config)
    : DpgAnalyzer(prog, profile,
                  PredictorBank(config.kind, config.predictor,
                                config.gshareBits),
                  config)
{
}

DpgAnalyzer::DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                         const DpgConfig &config, const DpgRole &role)
    : DpgAnalyzer(prog, profile,
                  PredictorBank(config.kind, config.predictor,
                                config.gshareBits),
                  config, role)
{
}

DpgAnalyzer::DpgAnalyzer(const Program &prog, const ExecProfile &profile,
                         PredictorBank bank, const DpgConfig &config,
                         const DpgRole &role)
    : prog_(prog),
      profile_(profile),
      cfg_(config),
      role_(role),
      bank_(std::move(bank))
{
    stats_.workload = prog.name;
    stats_.kind = config.kind;
    stats_.paths.influenceCount =
        LinearHistogram(config.influenceCap + 1);
    // Keyed per lane (the bank's output-predictor name): N analyzers
    // fed by one fused pass must not smear their pending-list or
    // influence distributions into one process-global series. Only
    // the arc role observes list lengths.
    if (role_.arcs) {
        pendingHist_ = obs::histogram("dpg.pending_arcs_per_value." +
                                      bank_.outputPredictor().name());
    }
    blockPrefetch_ = role_.predict &&
                     (bank_.inputPredictor().prefetchProfitable() ||
                      bank_.outputPredictor().prefetchProfitable());
    if (cfg_.verify) {
        if (!role_.full()) {
            // The oracle lockstep and invariant audit assume one
            // instance sees the whole model.
            throw std::invalid_argument(
                "DpgConfig::verify requires a full-role analyzer");
        }
        // The oracles always mirror cfg.kind's standard predictors;
        // with a caller-supplied bank this doubles as a check that
        // the bank really behaves like that configuration.
        diff_ = std::make_unique<verify::DifferentialBank>(
            cfg_.kind, cfg_.predictor, cfg_.gshareBits);
        inv_ = std::make_unique<verify::InvariantChecker>();
    }
}

DpgAnalyzer::~DpgAnalyzer() = default;

void
DpgAnalyzer::appendPending(ValueInfo &vi, StaticId consumer,
                           NodeId seq, ArcLabel label)
{
    auto bump = [&](PendingArc &pa) {
        ++pa.labelCounts[static_cast<unsigned>(label)];
        if (pa.lastSeq != seq) {
            ++pa.instances;
            pa.lastSeq = seq;
        }
    };

    for (unsigned k = 0; k < vi.pendingCount; ++k) {
        if (vi.pendingInline[k].consumer == consumer) {
            bump(vi.pendingInline[k]);
            return;
        }
    }
    for (std::uint32_t i = vi.spillHead; i != PendingArena::kNil;
         i = arena_.node(i).next) {
        if (arena_.node(i).arc.consumer == consumer) {
            bump(arena_.node(i).arc);
            return;
        }
    }

    PendingArc pa;
    pa.consumer = consumer;
    pa.instances = 1;
    pa.lastSeq = seq;
    ++pa.labelCounts[static_cast<unsigned>(label)];
    if (vi.pendingCount < kPendingInline) {
        vi.pendingInline[vi.pendingCount++] = pa;
        return;
    }
    // Inline buffer full: spill onto the value's arena chain. Chain
    // order is irrelevant — arcs are resolved independently at kill
    // time — so push-front keeps the append O(1).
    if (vi.spillHead == PendingArena::kNil)
        ++spillValues_;
    const std::uint32_t i = arena_.alloc();
    PendingArena::Node &n = arena_.node(i);
    n.arc = pa;
    n.next = vi.spillHead;
    vi.spillHead = i;
}

void
DpgAnalyzer::killValue(ValueInfo &vi)
{
    if (!vi.live)
        return;

    auto record = [this, &vi](const PendingArc &pa) {
        // Repeated-use: this value instance fed >= 2 dynamic instances
        // of the same static consumer. Repeated-use arcs subdivide by
        // producer kind (paper Fig. 6); everything else is single-use.
        ArcUse use = ArcUse::Single;
        if (pa.instances > 1) {
            use = vi.isData        ? ArcUse::DataRead
                  : vi.writeOnce   ? ArcUse::WriteOnce
                                   : ArcUse::Repeated;
        }
        for (unsigned l = 0; l < kNumArcLabels; ++l) {
            if (pa.labelCounts[l] != 0) {
                stats_.arcs.record(use, static_cast<ArcLabel>(l),
                                   pa.labelCounts[l]);
            }
        }
    };

    unsigned list_len = vi.pendingCount;
    for (unsigned k = 0; k < vi.pendingCount; ++k)
        record(vi.pendingInline[k]);
    for (std::uint32_t i = vi.spillHead; i != PendingArena::kNil;
         i = arena_.node(i).next) {
        record(arena_.node(i).arc);
        ++list_len;
    }
    if (pendingHist_)
        pendingHist_->observe(list_len);

    arena_.freeChain(vi.spillHead);
    vi.spillHead = PendingArena::kNil;
    vi.pendingCount = 0;
    vi.influence.clear();
    vi.live = false;
}

DpgAnalyzer::ValueInfo &
DpgAnalyzer::regValue(RegIndex reg)
{
    assert(reg != kZeroReg);
    ValueInfo &vi = regs_[reg];
    if (!vi.live) {
        // First read of a register never written by the program: its
        // content is pre-existing machine state, modeled as a D node
        // (this covers the initial stack pointer).
        vi.live = true;
        vi.isData = true;
        vi.outputPredicted = false;
        vi.writeOnce = false;
        vi.unpredMask = unpredOriginBit(UnpredOrigin::Data);
        // The arc role owns lazy D-node counting: a graph-only
        // instance tracks the same metadata but does not count it.
        if (role_.arcs)
            ++stats_.lazyDataNodes;
    }
    return vi;
}

DpgAnalyzer::ValueInfo &
DpgAnalyzer::memValue(Addr addr)
{
    // Word-granular state: the simulator traps unaligned accesses, so
    // addr >> 3 is a dense word index into the paged table.
    ValueInfo &vi = mem_.getOrCreate(addr >> 3);
    if (!vi.live) {
        // First load from a word the program never stored: statically
        // allocated data (or zero-filled space) — a D node.
        vi.live = true;
        vi.isData = true;
        vi.outputPredicted = false;
        vi.writeOnce = false;
        vi.unpredMask = unpredOriginBit(UnpredOrigin::Data);
        if (role_.arcs)
            ++stats_.lazyDataNodes;
    }
    return vi;
}

void
DpgAnalyzer::recordPropagateElement(std::uint8_t class_mask,
                                    unsigned nrefs,
                                    std::uint32_t max_depth,
                                    bool saturated)
{
    PathStats &ps = stats_.paths;
    ++ps.propagateElements;
    for (unsigned c = 0; c < kNumGeneratorClasses; ++c) {
        if (class_mask & (1u << c))
            ++ps.perClass[c];
    }
    ++ps.perCombo[class_mask & 63];
    ps.influenceCount.add(saturated ? ps.influenceCount.limit()
                                    : nrefs);
    ps.influenceDistance.add(max_depth);
    if (saturated)
        ++ps.saturationEvents;
}

void
DpgAnalyzer::onInstr(const DynInstr &di)
{
    analyzeInstr(di);
}

void
DpgAnalyzer::prefetchShallow(const DynInstr &di)
{
    for (unsigned slot = 0; slot < di.numInputs; ++slot) {
        const DynInput &in = di.inputs[slot];
        if (in.kind == InputKind::Imm)
            continue;
        bank_.prefetchInput(di.pc, slot);
        if (in.kind == InputKind::Mem)
            mem_.prefetch(in.addr >> 3);
    }
    if (di.hasMemOutput)
        mem_.prefetch(di.outAddr >> 3);
    if (!di.outputIsData && !di.isBranch && !di.isPassThrough &&
        di.hasValueOutput())
        bank_.prefetchOutput(di.pc);
}

void
DpgAnalyzer::prefetchPredictors(const DynInstr &di)
{
    for (unsigned slot = 0; slot < di.numInputs; ++slot) {
        if (di.inputs[slot].kind == InputKind::Imm)
            continue;
        bank_.prefetchInput(di.pc, slot);
    }
    if (!di.outputIsData && !di.isBranch && !di.isPassThrough &&
        di.hasValueOutput())
        bank_.prefetchOutput(di.pc);
}

void
DpgAnalyzer::prefetchDeep(const DynInstr &di)
{
    for (unsigned slot = 0; slot < di.numInputs; ++slot) {
        if (di.inputs[slot].kind == InputKind::Imm)
            continue;
        bank_.prefetchInputDeep(di.pc, slot);
    }
    if (!di.outputIsData && !di.isBranch && !di.isPassThrough &&
        di.hasValueOutput())
        bank_.prefetchOutputDeep(di.pc);
}

void
DpgAnalyzer::onBlock(std::span<const DynInstr> block)
{
    // Two-stage software pipeline over the block. The far stage pulls
    // first-level predictor entries and value-table slots; the near
    // stage reads the (by now resident) FCM level-1 history to locate
    // and pull the level-2 line — the dependent DRAM access that
    // otherwise serializes the context-predictor hot path. Prefetches
    // are pure hints: analyzeInstr runs in identical order with
    // identical state, so output is byte-identical to the unbatched
    // path (pinned by the golden and cross-path tests).
    // Predictors with cache-resident tables opt out (see
    // ValuePredictor::prefetchProfitable): for them the hint pipeline
    // is pure overhead and the plain loop wins.
    if (!blockPrefetch_) {
        for (const DynInstr &di : block)
            analyzeInstr(di);
        return;
    }
    constexpr std::size_t kFar = 12;
    constexpr std::size_t kNear = 4;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kFar < n)
            prefetchShallow(block[i + kFar]);
        if (i + kNear < n)
            prefetchDeep(block[i + kNear]);
        analyzeInstr(block[i]);
    }
}

void
DpgAnalyzer::analyzeInstr(const DynInstr &di)
{
    // The serial path: every role engaged in one instance. The
    // annotation byte is written and immediately consumed in
    // registers; the all-roles instantiation is the exact pre-split
    // code sequence, so serial output stays byte-identical (pinned by
    // the golden and cross-path suites).
    PredByte ann = 0;
    analyzeInstrImpl<true, true, true>(di, ann);
}

template <bool Predict, bool Graph, bool Arcs>
void
DpgAnalyzer::analyzeInstrImpl(const DynInstr &di, PredByte &ann)
{
    assert(!finalized_);
    if constexpr (Graph)
        ++stats_.dynInstrs;

    const Instruction &instr = *di.instr;
    const OpTraits &traits = instr.traits();

    bool has_pred = false;
    bool has_unpred = false;
    bool has_imm = formatHasImmediate(traits.format);
    // jal/jalr produce a PC-derived link value: treat the PC as an
    // immediate input, like the paper treats load-immediates.
    if (instr.op == Opcode::Jal || instr.op == Opcode::Jalr ||
        instr.op == Opcode::J) {
        has_imm = true;
    }

    if constexpr (Predict)
        ann = 0;

    std::array<bool, 3> input_pred{};
    std::array<InputInfluence, 3> infl{};
    unsigned n_infl = 0;
    std::uint8_t unpred_in = 0;

    for (unsigned slot = 0; slot < di.numInputs; ++slot) {
        const DynInput &in = di.inputs[slot];
        if (in.kind == InputKind::Imm) {
            has_imm = true;
            continue;
        }

        bool predicted;
        if constexpr (Predict) {
            predicted = bank_.predictInput(di.pc, slot, in.value);
            if (diff_)
                diff_->checkInput(di.pc, slot, in.value, predicted);
            if (predicted)
                ann |= predInputBit(slot);
        } else {
            predicted = (ann & predInputBit(slot)) != 0;
        }
        input_pred[slot] = predicted;
        if (predicted)
            has_pred = true;
        else
            has_unpred = true;

        if constexpr (!Graph && !Arcs)
            continue; // Predict-only: no value state.

        ValueInfo &vi = in.kind == InputKind::Reg
                            ? regValue(in.reg)
                            : memValue(in.addr);

        const ArcLabel label =
            makeArcLabel(vi.outputPredicted, predicted);

        if constexpr (Arcs) {
            appendPending(vi, di.pc, di.seq, label);
            if (inv_)
                inv_->noteArcRef();
            if (vi.isData) {
                stats_.arcs.recordDataArc();
                if (inv_)
                    inv_->noteDataArcRef();
            }
        }

        if constexpr (Graph) {
            // Unpredictability origins: a mispredicted input either
            // carries its producer's origins onward (<n,n>) or marks a
            // termination on the arc itself (<p,n> filtering).
            if (!predicted) {
                unpred_in |= vi.outputPredicted
                                 ? unpredOriginBit(UnpredOrigin::Term)
                                 : vi.unpredMask;
            }

            if (!cfg_.trackInfluence)
                continue;

            if (label == ArcLabel::PP) {
                // The arc itself propagates: it sits on every
                // predictable path through it, one step past the
                // producer.
                recordPropagateElement(vi.influence.classMask(),
                                       vi.influence.size(),
                                       vi.influence.maxDepth() + 1,
                                       vi.influence.saturated());
                for (const auto &ref : vi.influence.refs())
                    stats_.trees.touch(ref.gen, ref.depth + 1);
                infl[n_infl].set = &vi.influence;
                ++n_infl;
            } else if (label == ArcLabel::NP) {
                // The arc generates predictability. Class: by producer
                // kind (input data / write-once / control flow).
                const GeneratorClass cls =
                    vi.isData        ? GeneratorClass::D
                    : vi.writeOnce   ? GeneratorClass::W
                                     : GeneratorClass::C;
                const std::uint64_t gen =
                    stats_.trees.newGenerate(cls, di.pc);
                infl[n_infl].hasFresh = true;
                infl[n_infl].freshGen = gen;
                infl[n_infl].freshClass = cls;
                ++n_infl;
            }
        }
    }

    // --- Output prediction. ---
    bool has_output = false;
    bool out_pred = false;
    if (di.outputIsData) {
        // `in` result: a D node, inherently unpredicted; the node is
        // not classified.
        if constexpr (Graph)
            ++stats_.inputDataNodes;
    } else if (di.isBranch) {
        has_output = true;
        if constexpr (Predict) {
            out_pred = bank_.predictBranch(di.pc, di.taken);
            if (diff_)
                diff_->checkBranch(di.pc, di.taken, out_pred);
            if (out_pred)
                ann |= kPredOutputBit;
        } else {
            out_pred = (ann & kPredOutputBit) != 0;
        }
    } else if (di.isPassThrough) {
        // Loads/stores/jr copy the designated input's predictability
        // to the output; the output predictor is not consulted, so
        // these can never generate. Every role derives the same bit
        // from the input annotations.
        has_output = true;
        out_pred = input_pred[di.passSlot];
        if constexpr (Predict) {
            if (out_pred)
                ann |= kPredOutputBit;
        }
    } else if (di.hasValueOutput()) {
        has_output = true;
        if constexpr (Predict) {
            out_pred = bank_.predictOutput(di.pc, di.outValue);
            if (diff_)
                diff_->checkOutput(di.pc, di.outValue, out_pred);
            if (out_pred)
                ann |= kPredOutputBit;
        } else {
            out_pred = (ann & kPredOutputBit) != 0;
        }
    }

    if constexpr (!Graph && !Arcs)
        return; // Predict-only: the annotation is complete.

    if constexpr (Graph) {
        const NodeClass cls =
            di.outputIsData
                ? NodeClass::Inert
                : classifyNode(has_pred, has_unpred, has_imm,
                               has_output, out_pred);
        stats_.nodes.record(cls, instr.op);

        if (di.isBranch) {
            stats_.branches.record(
                classifyBranchInputs(has_pred, has_unpred, has_imm),
                out_pred);
            if (inv_)
                inv_->noteBranch();
        }

        // --- Node-level influence flow. ---
        scratch_.clear();
        if (cfg_.trackInfluence) {
            if (nodeClassPropagates(cls)) {
                scratch_.buildFromInputs(infl.data(), n_infl,
                                         cfg_.influenceCap,
                                         &mergeTallies_);
                recordPropagateElement(scratch_.classMask(),
                                       scratch_.size(),
                                       scratch_.maxDepth(),
                                       scratch_.saturated());
                for (const auto &ref : scratch_.refs())
                    stats_.trees.touch(ref.gen, ref.depth);
            } else if (nodeClassGenerates(cls)) {
                const GeneratorClass gcls =
                    cls == NodeClass::GenImmImm   ? GeneratorClass::I
                    : cls == NodeClass::GenUnpUnp ? GeneratorClass::N
                                                  : GeneratorClass::M;
                const std::uint64_t gen =
                    stats_.trees.newGenerate(gcls, di.pc);
                scratch_.setGenerate(gen, gcls);
            }
        }
    }

    // --- Unpredictability census: where does an unpredicted output's
    // --- unpredictability come from? ---
    std::uint8_t unpred_out = 0;
    if (!di.outputIsData && has_output && !out_pred) {
        unpred_out = unpred_in;
        if (has_pred) {
            // Predictability dies at this node (p,*->n).
            unpred_out |= unpredOriginBit(UnpredOrigin::Term);
        }
        if (unpred_out == 0) {
            // Never-predictable internal computation (e.g. i,i->n).
            unpred_out = unpredOriginBit(UnpredOrigin::Fresh);
        }
        if constexpr (Graph)
            stats_.unpred.record(unpred_out);
    }

    if constexpr (Graph) {
        // --- Sequence tracking: all inputs and outputs predicted. ---
        const bool fully_predicted =
            !di.outputIsData && !has_unpred &&
            (!has_output || out_pred);
        stats_.sequences.step(fully_predicted);
    }

    // --- Install the produced value. ---
    auto install = [&](ValueInfo &dst) {
        killValue(dst);
        dst.live = true;
        dst.isData = di.outputIsData;
        dst.outputPredicted = !di.outputIsData && out_pred;
        dst.writeOnce = profile_.executesOnce(di.pc);
        dst.unpredMask =
            di.outputIsData ? unpredOriginBit(UnpredOrigin::Data)
                            : unpred_out;
        if constexpr (Graph)
            dst.influence = scratch_;
    };

    if (di.hasRegOutput)
        install(regs_[di.outReg]);
    if (di.hasMemOutput)
        install(mem_.getOrCreate(di.outAddr >> 3));
}

void
DpgAnalyzer::predictBlock(std::span<const DynInstr> block,
                          PredByte *ann)
{
    assert(role_.predict && !role_.graph && !role_.arcs);
    const std::size_t n = block.size();
    if (!blockPrefetch_) {
        for (std::size_t i = 0; i < n; ++i)
            analyzeInstrImpl<true, false, false>(block[i], ann[i]);
        return;
    }
    // Same two-stage software pipeline as onBlock, restricted to the
    // predictor tables — the only state this role touches.
    constexpr std::size_t kFar = 12;
    constexpr std::size_t kNear = 4;
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kFar < n)
            prefetchPredictors(block[i + kFar]);
        if (i + kNear < n)
            prefetchDeep(block[i + kNear]);
        analyzeInstrImpl<true, false, false>(block[i], ann[i]);
    }
}

void
DpgAnalyzer::warmupBlock(std::span<const DynInstr> block)
{
    // Predictor-training only: the bank (and the differential oracle,
    // when attached) sees the stream in order, but no statistic or
    // value-table state moves — so the measured stream that follows
    // starts from warmed tables and clean counters.
    assert(role_.predict);
    PredByte ann = 0;
    for (const DynInstr &di : block)
        analyzeInstrImpl<true, false, false>(di, ann);
}

void
DpgAnalyzer::markWarmupEnd()
{
    warmupLookups_ = bank_.branchPredictor().lookups();
    warmupHits_ = bank_.branchPredictor().hits();
}

void
DpgAnalyzer::analyzeAnnotatedBlock(std::span<const DynInstr> block,
                                   const PredByte *ann)
{
    assert(!role_.predict && role_.graph != role_.arcs);
    const std::size_t n = block.size();
    if (role_.graph) {
        for (std::size_t i = 0; i < n; ++i) {
            PredByte a = ann[i];
            analyzeInstrImpl<false, true, false>(block[i], a);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            PredByte a = ann[i];
            analyzeInstrImpl<false, false, true>(block[i], a);
        }
    }
}

void
DpgAnalyzer::onRunEnd()
{
}

DpgStats
DpgAnalyzer::takeStats()
{
    assert(!finalized_);
    // The write-once classification is only sound when the profile
    // covers the identical dynamic stream (same program, input, and
    // budget). Pass 2 re-simulates that stream, so this compare is
    // what ties the two passes together, and it runs in every build.
    // Only the graph role counts dynInstrs, so partial-role instances
    // skip it. A sampled analyzer (cfg.partialStream) sees a
    // sub-stream of the profiled run, so the profile may only exceed
    // the analyzed count.
    if (role_.graph &&
        (cfg_.partialStream ? profile_.total() < stats_.dynInstrs
                            : profile_.total() != stats_.dynInstrs)) {
        throw std::runtime_error(
            "pass-1 profile does not cover the analyzed stream: " +
            std::to_string(profile_.total()) + " profiled vs " +
            std::to_string(stats_.dynInstrs) + " analyzed");
    }
    finalized_ = true;

    for (auto &vi : regs_)
        killValue(vi);
    mem_.forEachSlot([this](ValueInfo &vi) { killValue(vi); });

    stats_.sequences.finish();
    // Post-warmup tallies: identical to the bank totals when no
    // warmup ran (warmup marks are then zero), so the default path's
    // accuracy value is unchanged.
    stats_.gshareLookups =
        bank_.branchPredictor().lookups() - warmupLookups_;
    stats_.gshareHits = bank_.branchPredictor().hits() - warmupHits_;
    stats_.gshareAccuracy =
        stats_.gshareLookups == 0
            ? 0.0
            : static_cast<double>(stats_.gshareHits) /
                  static_cast<double>(stats_.gshareLookups);
    if (inv_) {
        inv_->finalize(stats_, cfg_.trackInfluence,
                       stats_.gshareLookups, stats_.gshareHits);
    }

    // Fold this run's thread-confined tallies into the process-wide
    // metrics registry. This is the analyzer's join point: counters
    // are commutative sums, so the merged totals are deterministic
    // regardless of which worker thread ran which analysis. Each
    // tally folds from the role that owns it, so role-restricted
    // instances never count a tally twice.
    if (obs::Registry *reg = obs::registry()) {
        auto addc = [&](const std::string &name, std::uint64_t v) {
            reg->counter(name).add(v);
        };
        if (role_.predict) {
            const PredictorBank::Tallies &t = bank_.tallies();
            addc("pred.output_lookups", t.outputLookups);
            addc("pred.output_hits", t.outputHits);
            addc("pred.input_lookups", t.inputLookups);
            addc("pred.input_hits", t.inputHits);
            addc("pred.branch_lookups",
                 bank_.branchPredictor().lookups());
            addc("pred.branch_hits", bank_.branchPredictor().hits());
            const PredTableStats out =
                bank_.outputPredictor().tableStats();
            const PredTableStats in =
                bank_.inputPredictor().tableStats();
            addc("pred.output_table_capacity", out.capacity);
            addc("pred.output_table_occupied", out.occupied);
            addc("pred.output_alias_refs", out.aliasRefs);
            addc("pred.input_table_capacity", in.capacity);
            addc("pred.input_table_occupied", in.occupied);
            addc("pred.input_alias_refs", in.aliasRefs);
        }
        if (role_.graph) {
            addc("dpg.instrs_analyzed", stats_.dynInstrs);
            addc("dpg.runs", 1);
            // Hot-path memory-layout telemetry (DESIGN.md Sec. 9):
            // paged value-table footprint.
            addc("dpg.mem_pages_allocated", mem_.pagesAllocated());
            addc("dpg.mem_pages_live", mem_.livePages());
            addc("dpg.mem_pages_recycled", mem_.pagesRecycled());
            addc("dpg.mem_dir_chunks", mem_.liveChunks());
            addc("dpg.mem_table_bytes", mem_.memoryBytes());
            // Influence-dedup tallies, keyed per lane like the
            // pending histogram: a fused sweep folds N lanes from one
            // pass and their distributions must stay separable.
            const std::string lane =
                "." + bank_.outputPredictor().name();
            addc("dpg.influence_unions" + lane, mergeTallies_.unions);
            addc("dpg.influence_refs_merged" + lane,
                 mergeTallies_.refsMerged);
            addc("dpg.influence_dup_hits" + lane,
                 mergeTallies_.dupHits);
            addc("dpg.influence_truncations" + lane,
                 mergeTallies_.truncations);
        }
        if (role_.arcs) {
            // Pending-arc arena pressure.
            addc("dpg.arena_chunks", arena_.chunkCount());
            addc("dpg.arena_bytes", arena_.memoryBytes());
            addc("dpg.arena_node_high_water", arena_.highWater());
            addc("dpg.pending_spill_values", spillValues_);
        }
        if (diff_)
            addc("verify.checks", diff_->checksPerformed());
    }
    return std::move(stats_);
}

} // namespace ppm
