/**
 * @file
 * Predictor unit tests: learning behaviour, hysteresis, aliasing,
 * bank separation, and property sweeps over sequence families.
 */

#include <gtest/gtest.h>

#include "pred/context_predictor.hh"
#include "pred/gshare.hh"
#include "pred/last_value_predictor.hh"
#include "pred/predictor_bank.hh"
#include "pred/stride_predictor.hh"

namespace ppm {
namespace {

/** Feed a sequence at one key; return how many were predicted. */
unsigned
feed(ValuePredictor &p, const std::vector<Value> &seq,
     std::uint64_t key = 1)
{
    unsigned hits = 0;
    for (Value v : seq) {
        if (p.predictAndUpdate(key, v))
            ++hits;
    }
    return hits;
}

std::vector<Value>
constantSeq(Value v, unsigned n)
{
    return std::vector<Value>(n, v);
}

std::vector<Value>
strideSeq(Value start, std::int64_t stride, unsigned n)
{
    std::vector<Value> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(start + Value(i) * Value(stride));
    return out;
}

std::vector<Value>
cycleSeq(const std::vector<Value> &period, unsigned n)
{
    std::vector<Value> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(period[i % period.size()]);
    return out;
}

// --- last-value ---------------------------------------------------------

TEST(LastValue, LearnsConstantAfterOneMiss)
{
    LastValuePredictor p({});
    EXPECT_EQ(feed(p, constantSeq(7, 50)), 49u);
}

TEST(LastValue, HysteresisSurvivesOneGlitch)
{
    LastValuePredictor p({});
    feed(p, constantSeq(7, 10)); // counter saturated at 3
    EXPECT_FALSE(p.predictAndUpdate(1, 99)); // glitch
    // Value 7 must still be installed (one miss only decrements).
    EXPECT_TRUE(p.predictAndUpdate(1, 7));
}

TEST(LastValue, ReplacesAfterRepeatedMisses)
{
    LastValuePredictor p({});
    feed(p, constantSeq(7, 10));
    feed(p, constantSeq(8, 5));
    // By now 8 must be installed and predicted.
    EXPECT_TRUE(p.predictAndUpdate(1, 8));
}

TEST(LastValue, StrideSequenceUnpredictable)
{
    LastValuePredictor p({});
    EXPECT_EQ(feed(p, strideSeq(0, 1, 100)), 0u);
}

TEST(LastValue, PeekAndReset)
{
    LastValuePredictor p({});
    EXPECT_FALSE(p.peek(1).has_value());
    p.predictAndUpdate(1, 5);
    EXPECT_EQ(p.peek(1), 5u);
    p.reset();
    EXPECT_FALSE(p.peek(1).has_value());
}

// --- stride -------------------------------------------------------------

TEST(Stride, LearnsStrideAfterTwoDeltas)
{
    StridePredictor p({});
    const unsigned hits = feed(p, strideSeq(10, 3, 100));
    // First value installs, second/third teach the delta; everything
    // from the fourth on must hit.
    EXPECT_GE(hits, 97u);
}

TEST(Stride, SubsumesLastValue)
{
    StridePredictor p({});
    EXPECT_EQ(feed(p, constantSeq(42, 50)), 49u);
}

TEST(Stride, TwoDeltaFiltersGlitches)
{
    StridePredictor p({});
    feed(p, strideSeq(0, 1, 20));
    // One wild value must not destroy the learned stride: after the
    // glitch the predictor mispredicts twice (glitch itself and the
    // return) but then resumes the stride from the new base.
    p.predictAndUpdate(1, 999);
    p.predictAndUpdate(1, 1000);
    EXPECT_TRUE(p.predictAndUpdate(1, 1001));
}

TEST(Stride, NegativeStride)
{
    StridePredictor p({});
    EXPECT_GE(feed(p, strideSeq(1000, -5, 50)), 47u);
}

TEST(Stride, AlternatingUnpredictable)
{
    StridePredictor p({});
    // 0,1,0,1,... deltas alternate +1/-1 so 2-delta never locks on.
    const unsigned hits = feed(p, cycleSeq({0, 1}, 100));
    EXPECT_LE(hits, 5u);
}

// --- context (FCM) --------------------------------------------------------

TEST(Context, LearnsRepeatingCycle)
{
    ContextPredictor p({});
    // A cycle of period 6 repeated many times: once each context has
    // been seen, every value is predictable.
    const auto seq = cycleSeq({3, 1, 4, 1, 5, 9}, 240);
    const unsigned hits = feed(p, seq);
    EXPECT_GE(hits, 200u);
}

TEST(Context, CannotPredictNonRepeating)
{
    ContextPredictor p({});
    // Every context is fresh, so (up to rare second-level aliasing)
    // nothing is predictable — the FCM's structural weakness that
    // stride covers, visible in the paper's compress rows.
    EXPECT_LE(feed(p, strideSeq(0, 1, 200)), 2u);
}

TEST(Context, HistoryLengthLimits)
{
    // The paper's Sec. 4.4 example: a period-10 counter ANDed with a
    // mask is predictable with history 4 but not with history 1 when
    // the masked sequence aliases.
    PredictorConfig deep;
    deep.historyLen = 4;
    PredictorConfig shallow;
    shallow.historyLen = 1;

    // Masked sequence: bit 3 of 0..9 -> 0,0,0,0,0,0,0,0,1,1 repeated.
    std::vector<Value> period;
    for (Value i = 0; i < 10; ++i)
        period.push_back((i >> 3) & 1);
    const auto seq = cycleSeq(period, 400);

    ContextPredictor dp(deep);
    ContextPredictor sp(shallow);
    const unsigned deep_hits = feed(dp, seq);
    const unsigned shallow_hits = feed(sp, seq);
    // With history 1 the contexts "0 -> 0" and "0 -> 1" collide, so
    // the deep predictor must do strictly better.
    EXPECT_GT(deep_hits, shallow_hits);
}

TEST(Context, SharedL2CrossKeyLearning)
{
    // With a shared second level, a second key producing the same
    // value stream benefits from the first key's training
    // (constructive interference) once its L1 history matches.
    PredictorConfig config;
    config.sharedL2 = true;
    ContextPredictor p(config);
    const auto seq = cycleSeq({10, 20, 30}, 120);
    feed(p, seq, /*key=*/1);
    const unsigned hits2 = feed(p, seq, /*key=*/2);

    PredictorConfig priv = config;
    priv.sharedL2 = false;
    ContextPredictor q(priv);
    feed(q, seq, /*key=*/1);
    const unsigned hits2_priv = feed(q, seq, /*key=*/2);

    EXPECT_GT(hits2, hits2_priv);
}

// --- gshare -----------------------------------------------------------------

TEST(Gshare, LearnsBiasedBranch)
{
    Gshare g(16);
    unsigned hits = 0;
    unsigned late_hits = 0;
    for (int i = 0; i < 200; ++i) {
        const bool hit = g.predictAndUpdate(12, true);
        if (hit)
            ++hits;
        if (hit && i >= 100)
            ++late_hits;
    }
    // Warmup costs one miss per fresh global-history pattern (~16);
    // once the history saturates, prediction is perfect.
    EXPECT_GE(hits, 180u);
    EXPECT_EQ(late_hits, 100u);
    EXPECT_GT(g.accuracy(), 0.9);
}

TEST(Gshare, LearnsAlternationViaHistory)
{
    Gshare g(16);
    unsigned hits = 0;
    for (int i = 0; i < 400; ++i) {
        if (g.predictAndUpdate(12, (i & 1) != 0))
            ++hits;
    }
    // After warmup, history disambiguates the alternation perfectly.
    EXPECT_GE(hits, 350u);
}

TEST(Gshare, CountersTracked)
{
    Gshare g(10);
    g.predictAndUpdate(1, true);
    g.predictAndUpdate(1, true);
    EXPECT_EQ(g.lookups(), 2u);
    g.reset();
    EXPECT_EQ(g.lookups(), 0u);
    EXPECT_DOUBLE_EQ(g.accuracy(), 0.0);
}

// --- bank ---------------------------------------------------------------

TEST(Bank, InputAndOutputPredictorsAreSeparate)
{
    PredictorBank bank(PredictorKind::LastValue);
    // Train the output side at pc 5.
    for (int i = 0; i < 10; ++i)
        bank.predictOutput(5, 7);
    // The input side at the same pc must not have learned from it.
    EXPECT_FALSE(bank.predictInput(5, 0, 7));
}

TEST(Bank, InputSlotsDistinct)
{
    PredictorBank bank(PredictorKind::LastValue);
    for (int i = 0; i < 10; ++i)
        bank.predictInput(5, 0, 7);
    // Slot 1 at the same pc is a different sequence.
    EXPECT_FALSE(bank.predictInput(5, 1, 99));
    EXPECT_NE(PredictorBank::inputKey(5, 0),
              PredictorBank::inputKey(5, 1));
}

TEST(Bank, FactoryNamesAndLetters)
{
    EXPECT_EQ(predictorLetter(PredictorKind::LastValue), 'L');
    EXPECT_EQ(predictorLetter(PredictorKind::Stride2Delta), 'S');
    EXPECT_EQ(predictorLetter(PredictorKind::Context), 'C');
    EXPECT_EQ(predictorName(PredictorKind::Context), "context");
    for (PredictorKind kind : kAllPredictorKinds) {
        auto p = makeValuePredictor(kind);
        ASSERT_NE(p, nullptr);
        EXPECT_FALSE(p->name().empty());
        EXPECT_EQ(parsePredictors(predictorName(kind)),
                  std::vector<PredictorKind>{kind});
    }
    EXPECT_EQ(parsePredictors("last"),
              std::vector<PredictorKind>{PredictorKind::LastValue});
    EXPECT_EQ(parsePredictors("all").size(), std::size(kAllPredictorKinds));
    EXPECT_TRUE(parsePredictors("bogus").empty());
}

// --- property sweep across all predictor kinds -----------------------------

class AllPredictors : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(AllPredictors, ConstantSequencesEventuallyPredicted)
{
    auto p = makeValuePredictor(GetParam());
    // Warmup differs per family (FCM needs its history to fill), but
    // a constant must become predictable for all of them.
    EXPECT_GE(feed(*p, constantSeq(1234, 64)), 58u);
}

TEST_P(AllPredictors, NeverPredictsBeforeAnyTraining)
{
    auto p = makeValuePredictor(GetParam());
    EXPECT_FALSE(p->peek(99).has_value());
    EXPECT_FALSE(p->predictAndUpdate(99, 5));
}

TEST_P(AllPredictors, ResetForgets)
{
    auto p = makeValuePredictor(GetParam());
    feed(*p, constantSeq(5, 32));
    p->reset();
    EXPECT_FALSE(p->predictAndUpdate(1, 5));
}

TEST_P(AllPredictors, DistinctKeysIndependentWhenNotAliased)
{
    auto p = makeValuePredictor(GetParam());
    feed(*p, constantSeq(7, 32), /*key=*/1);
    // Key 2 maps to a different first-level entry (table is 2^16);
    // a fresh value there cannot be predicted. (The context
    // predictor's *shared* second level may still recognize key 1's
    // value for a matching context, which is why the probe value
    // differs from the trained one.)
    EXPECT_FALSE(p->predictAndUpdate(2, 8));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllPredictors,
    ::testing::Values(PredictorKind::LastValue,
                      PredictorKind::Stride2Delta,
                      PredictorKind::Context),
    [](const ::testing::TestParamInfo<PredictorKind> &info) {
        std::string name = predictorName(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace ppm
