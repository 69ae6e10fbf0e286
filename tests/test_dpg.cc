/**
 * @file
 * Model-semantics tests: hand-analyzable programs whose DPG
 * classifications are known, plus model invariants checked on real
 * workloads.
 */

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "dpg/dpg_analyzer.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

DpgStats
model(const std::string &src, PredictorKind kind,
      std::vector<Value> input = {})
{
    ExperimentConfig config;
    config.dpg.kind = kind;
    return runModelOnSource(src, "t", input, config);
}

// --- classification taxonomy -------------------------------------------

TEST(Classify, NodeClassMapping)
{
    // (has_pred, has_unpred, has_imm, has_output, out_pred)
    EXPECT_EQ(classifyNode(false, false, true, true, true),
              NodeClass::GenImmImm);
    EXPECT_EQ(classifyNode(false, true, false, true, true),
              NodeClass::GenUnpUnp);
    EXPECT_EQ(classifyNode(false, true, true, true, true),
              NodeClass::GenImmUnp);
    EXPECT_EQ(classifyNode(true, false, false, true, true),
              NodeClass::PropPredPred);
    EXPECT_EQ(classifyNode(true, false, true, true, true),
              NodeClass::PropPredImm);
    EXPECT_EQ(classifyNode(true, true, true, true, true),
              NodeClass::PropPredUnp);
    EXPECT_EQ(classifyNode(true, false, false, true, false),
              NodeClass::TermPredPred);
    EXPECT_EQ(classifyNode(true, false, true, true, false),
              NodeClass::TermPredImm);
    EXPECT_EQ(classifyNode(true, true, false, true, false),
              NodeClass::TermPredUnp);
    EXPECT_EQ(classifyNode(false, true, false, true, false),
              NodeClass::UnpredFlow);
    EXPECT_EQ(classifyNode(true, false, false, false, false),
              NodeClass::Inert);
}

TEST(Classify, ArcLabels)
{
    EXPECT_EQ(makeArcLabel(false, false), ArcLabel::NN);
    EXPECT_EQ(makeArcLabel(false, true), ArcLabel::NP);
    EXPECT_EQ(makeArcLabel(true, false), ArcLabel::PN);
    EXPECT_EQ(makeArcLabel(true, true), ArcLabel::PP);
}

TEST(Classify, GroupPredicates)
{
    EXPECT_TRUE(nodeClassGenerates(NodeClass::GenImmImm));
    EXPECT_TRUE(nodeClassPropagates(NodeClass::PropPredUnp));
    EXPECT_TRUE(nodeClassTerminates(NodeClass::TermPredImm));
    EXPECT_FALSE(nodeClassGenerates(NodeClass::PropPredPred));
    EXPECT_FALSE(nodeClassPropagates(NodeClass::Inert));
}

TEST(Classify, Names)
{
    EXPECT_EQ(nodeClassName(NodeClass::GenImmImm), "i,i->p");
    EXPECT_EQ(arcUseName(ArcUse::WriteOnce), "wl");
    EXPECT_EQ(arcLabelName(ArcLabel::NP), "<n,p>");
    EXPECT_EQ(generatorMaskName(generatorClassBit(GeneratorClass::C) |
                                generatorClassBit(GeneratorClass::I)),
              "CI");
    EXPECT_EQ(generatorMaskName(0), "-");
}

// --- generation ----------------------------------------------------------

TEST(DpgModel, RepeatedLiGeneratesImmImm)
{
    const DpgStats stats = model(R"(
        li $8, 50
l:      li $4, 7
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // The li in the loop executes 50 times; after the first its
    // constant output is predicted with no inputs: i,i->p.
    EXPECT_GE(stats.nodes.count(NodeClass::GenImmImm), 45u);
}

TEST(DpgModel, WriteOnceArcGeneration)
{
    const DpgStats stats = model(R"(
        li $4, 5              # executes once: write-once producer
        li $8, 50
l:      add $5, $4, $4        # repeated use of $4 by one static instr
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // $4's producer output was not predicted (first and only
    // execution) but the consumers' input quickly is: <wl:n,p>.
    EXPECT_GE(stats.arcs.count(ArcUse::WriteOnce, ArcLabel::NP), 45u);
    EXPECT_EQ(stats.arcs.count(ArcUse::WriteOnce, ArcLabel::PP), 0u);
}

TEST(DpgModel, RepeatedInputDataArcs)
{
    const DpgStats stats = model(R"(
        .data
v:      .word 123
        .text
        li $8, 50
        la $9, v
l:      ld $4, 0($9)          # repeated read of static input data
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // The memory word is a D node feeding the same static load
    // repeatedly: <rd:n,p> arcs after warmup.
    EXPECT_GE(stats.arcs.count(ArcUse::DataRead, ArcLabel::NP), 45u);
    EXPECT_GE(stats.arcs.dataArcs(), 50u);
    EXPECT_GE(stats.lazyDataNodes, 1u);
}

TEST(DpgModel, DoubleUseWithinOneInstanceIsSingleUse)
{
    // One dynamic instruction consuming a value twice produces two
    // arcs to ONE consumer instance: by the paper's definition that
    // is not repeated-use (no iteration re-reads the value).
    const DpgStats stats = model(R"(
        li  $4, 9
        add $5, $4, $4
        add $6, $4, $4
        halt
)",
                                 PredictorKind::LastValue);
    EXPECT_EQ(stats.arcs.count(ArcUse::Repeated, ArcLabel::NN) +
                  stats.arcs.count(ArcUse::Repeated, ArcLabel::NP) +
                  stats.arcs.count(ArcUse::WriteOnce, ArcLabel::NN) +
                  stats.arcs.count(ArcUse::WriteOnce, ArcLabel::NP),
              0u);
    // But a SECOND dynamic instance of the same consumer does make
    // the arcs repeated-use (write-once producer here).
    const DpgStats rep = model(R"(
        li  $4, 9
        li  $8, 10
l:      add $5, $4, $4
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                               PredictorKind::LastValue);
    EXPECT_GT(rep.arcs.count(ArcUse::WriteOnce, ArcLabel::NP) +
                  rep.arcs.count(ArcUse::WriteOnce, ArcLabel::NN),
              10u);
}

// --- propagation -----------------------------------------------------------

TEST(DpgModel, ChainPropagatesThroughNodesAndArcs)
{
    const DpgStats stats = model(R"(
        li $8, 50
l:      li $4, 7
        addi $5, $4, 1
        addi $6, $5, 1
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // Both addis see a predicted register input plus an immediate.
    EXPECT_GE(stats.nodes.count(NodeClass::PropPredImm), 90u);
    // The two chain arcs are single-use <1:p,p>.
    EXPECT_GE(stats.arcs.count(ArcUse::Single, ArcLabel::PP), 90u);
}

TEST(DpgModel, LoadPropagatesPredictableData)
{
    const DpgStats stats = model(R"(
        .data
v:      .word 9
        .text
        li $8, 50
        la $9, v
l:      ld $4, 0($9)
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // The load's address register and memory data both become
    // predictable; the load itself is pass-through and must appear
    // as a propagate node, never a generate.
    EXPECT_GE(stats.nodes.count(NodeClass::PropPredPred,
                                OpCategory::Load) +
                  stats.nodes.count(NodeClass::PropPredImm,
                                    OpCategory::Load),
              40u);
}

// --- termination -------------------------------------------------------------

TEST(DpgModel, PredMeetsUnpredTerminates)
{
    const DpgStats stats = model(R"(
        li $4, 5              # constant: predictable
        li $6, 0
        li $8, 50
l:      addi $6, $6, 1        # counter: unpredictable to last-value
        add  $5, $4, $6       # predictable + unpredictable -> changing
        addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::LastValue);
    // add $5: has_pred ($4) + has_unpred ($6), output changes every
    // iteration -> p,n->n.
    EXPECT_GE(stats.nodes.count(NodeClass::TermPredUnp), 40u);
}

TEST(DpgModel, StridePredictorTurnsTerminationIntoPropagation)
{
    const char *src = R"(
        li $4, 5
        li $6, 0
        li $8, 50
l:      addi $6, $6, 1
        add  $5, $4, $6
        addi $8, $8, -1
        bnez $8, l
        halt
)";
    const DpgStats lv = model(src, PredictorKind::LastValue);
    const DpgStats st = model(src, PredictorKind::Stride2Delta);
    // The same program under stride prediction: the counter and the
    // sum both stride, so propagation replaces termination.
    EXPECT_GT(st.nodes.propagates(), lv.nodes.propagates());
    EXPECT_LT(st.nodes.terminates(), lv.nodes.terminates());
}

// --- pass-through instructions never generate --------------------------------

class PassThroughNeverGenerates
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PassThroughNeverGenerates, OnWorkload)
{
    const Workload &w = findWorkload(GetParam());
    ExperimentConfig config;
    config.maxInstrs = 300'000;
    config.dpg.trackInfluence = false;
    const Program prog = assemble(std::string(w.source), w.name);
    const DpgStats stats =
        runModel(prog, w.makeInput(kDefaultWorkloadSeed), config);

    for (NodeClass c : {NodeClass::GenImmImm, NodeClass::GenUnpUnp,
                        NodeClass::GenImmUnp}) {
        EXPECT_EQ(stats.nodes.count(c, OpCategory::Load), 0u);
        EXPECT_EQ(stats.nodes.count(c, OpCategory::Store), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PassThroughNeverGenerates,
    ::testing::Values("compress", "gcc", "m88ksim", "swim"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// --- accounting invariants -----------------------------------------------

class ModelInvariants : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ModelInvariants, CountsAreCoherent)
{
    const Workload &w = findWorkload(GetParam());
    ExperimentConfig config;
    config.maxInstrs = 300'000;
    const Program prog = assemble(std::string(w.source), w.name);
    const DpgStats stats =
        runModel(prog, w.makeInput(kDefaultWorkloadSeed), config);

    // Every dynamic instruction is classified exactly once.
    EXPECT_EQ(stats.nodes.total(), stats.dynInstrs);

    // Arc label counts add up to the total.
    std::uint64_t label_sum = 0;
    for (unsigned l = 0; l < kNumArcLabels; ++l)
        label_sum += stats.arcs.countLabel(static_cast<ArcLabel>(l));
    EXPECT_EQ(label_sum, stats.arcs.total());

    // D arcs cannot exceed total arcs; D nodes are part of totalNodes.
    EXPECT_LE(stats.arcs.dataArcs(), stats.arcs.total());
    EXPECT_EQ(stats.totalNodes(),
              stats.dynInstrs + stats.lazyDataNodes);

    // Branch records cover every conditional branch in both outcome
    // columns.
    std::uint64_t sig_sum = 0;
    for (unsigned s = 0; s < kNumBranchSigs; ++s) {
        sig_sum +=
            stats.branches.count(static_cast<BranchSig>(s), false) +
            stats.branches.count(static_cast<BranchSig>(s), true);
    }
    EXPECT_EQ(sig_sum, stats.branches.total());

    // Sequences never contain more instructions than executed.
    EXPECT_LE(stats.sequences.instructionsInSequences(),
              stats.dynInstrs);

    // Propagating elements recorded for paths match the label counts:
    // one record per propagating node and per propagating arc.
    EXPECT_EQ(stats.paths.propagateElements,
              stats.nodes.propagates() + stats.arcs.propagates());
}

TEST_P(ModelInvariants, DeterministicAcrossRuns)
{
    const Workload &w = findWorkload(GetParam());
    ExperimentConfig config;
    config.maxInstrs = 150'000;
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);
    const DpgStats a = runModel(prog, input, config);
    const DpgStats b = runModel(prog, input, config);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.arcs.total(), b.arcs.total());
    EXPECT_EQ(a.nodes.propagates(), b.nodes.propagates());
    EXPECT_EQ(a.trees.generateCount(), b.trees.generateCount());
    EXPECT_EQ(a.paths.propagateElements, b.paths.propagateElements);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ModelInvariants,
    ::testing::Values("compress", "gcc", "go", "li", "vortex",
                      "mgrid"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// --- branch statistics ---------------------------------------------------

TEST(DpgModel, BranchSignatureClassification)
{
    EXPECT_EQ(classifyBranchInputs(true, false, false), BranchSig::PP);
    EXPECT_EQ(classifyBranchInputs(true, false, true), BranchSig::PI);
    EXPECT_EQ(classifyBranchInputs(true, true, true), BranchSig::PN);
    EXPECT_EQ(classifyBranchInputs(false, false, true),
              BranchSig::II);
    EXPECT_EQ(classifyBranchInputs(false, true, true), BranchSig::IN);
    EXPECT_EQ(classifyBranchInputs(false, true, false),
              BranchSig::NN);
}

TEST(DpgModel, LoopBranchIsCountedAndPredicted)
{
    const DpgStats stats = model(R"(
        li $8, 200
l:      addi $8, $8, -1
        bnez $8, l
        halt
)",
                                 PredictorKind::Stride2Delta);
    EXPECT_EQ(stats.branches.total(), 200u);
    // The loop branch direction is T...TN: gshare learns the T run.
    EXPECT_GT(stats.gshareAccuracy, 0.9);
    // Under stride prediction the counter input is predictable, so
    // predicted branches mostly carry a predictable input (the
    // paper's "branches propagate" observation).
    EXPECT_GT(stats.branches.propagates(), 150u);
}

// --- predictable sequences -----------------------------------------------

TEST(DpgModel, FullyPredictedLoopFormsLongSequences)
{
    const DpgStats stats = model(R"(
        li $8, 0
        li $9, 1024
l:      li $4, 7
        addi $5, $4, 1
        addi $8, $8, 1
        bne  $8, $9, l
        halt
)",
                                 PredictorKind::Stride2Delta);
    // After warmup every instruction in the loop is fully predicted,
    // so nearly all instructions sit in one enormous run.
    const Log2Histogram &h = stats.sequences.histogram();
    EXPECT_GT(h.totalWeight(), stats.dynInstrs * 8 / 10);
    // And the bulk of that weight is in runs of 256+.
    EXPECT_GT(h.tailFraction(9), 0.8);
}

// Pass 2 re-simulates the stream pass 1 profiled, so the instruction
// totals tie the two passes together: an analyzer fed more or fewer
// instructions than its profile covers must fail in every build, not
// only where assertions are compiled in.
TEST(DpgModel, MismatchedProfileThrows)
{
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);
    ExecProfile profile(prog.textSize());
    Machine(prog, input).run(&profile, 20'000);

    for (const std::uint64_t analyzed : {10'000u, 30'000u}) {
        DpgAnalyzer analyzer(prog, profile);
        Machine(prog, input).run(&analyzer, analyzed);
        EXPECT_THROW(analyzer.takeStats(), std::runtime_error)
            << "analyzed " << analyzed;
    }

    // A sampled analyzer sees a sub-stream: fewer is fine, more is not.
    DpgConfig partial;
    partial.partialStream = true;
    DpgAnalyzer sub(prog, profile, partial);
    Machine(prog, input).run(&sub, 10'000);
    EXPECT_EQ(sub.takeStats().dynInstrs, 10'000u);
    DpgAnalyzer over(prog, profile, partial);
    Machine(prog, input).run(&over, 30'000);
    EXPECT_THROW(over.takeStats(), std::runtime_error);

    // Differential verification audits the whole model, so a
    // role-restricted analyzer refuses it.
    DpgConfig verifying;
    verifying.verify = true;
    const DpgRole predictOnly{true, false, false};
    EXPECT_THROW(DpgAnalyzer(prog, profile, verifying, predictOnly),
                 std::invalid_argument);
}

} // namespace
} // namespace ppm
