/**
 * @file
 * The value-predictor interface and factory.
 *
 * The paper's model is parameterized by "a specified finite state
 * predictor" that watches a sequence keyed by program location and
 * guesses the next value. Three concrete predictors are studied:
 * last-value, 2-delta stride, and two-level context-based (FCM). All are
 * implemented here behind one interface so the DPG analyzer, the
 * experiment drivers, and user code (see examples/custom_predictor.cpp)
 * can swap them freely.
 *
 * Predictors are updated immediately after each prediction (paper
 * Sec. 3: "the predictors are immediately updated following a
 * prediction"), so the primitive operation is predict-and-update.
 */

#ifndef PPM_PRED_VALUE_PREDICTOR_HH
#define PPM_PRED_VALUE_PREDICTOR_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hh"

namespace ppm {

/**
 * Table-pressure introspection of one predictor instance (the
 * observability layer folds these into the metrics registry at each
 * analyzer's join point — see obs/obs.hh and DESIGN.md).
 */
struct PredTableStats
{
    /** Entries in the value (last-level) table. */
    std::uint64_t capacity = 0;

    /** Entries currently holding a learned mapping. */
    std::uint64_t occupied = 0;

    /** predictAndUpdate calls served. */
    std::uint64_t accesses = 0;

    /**
     * Accesses that hit a (first-level) entry last touched by a
     * *different* key — destructive-aliasing pressure on the table.
     */
    std::uint64_t aliasRefs = 0;
};

/** Abstract last-level interface all value predictors implement. */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /**
     * Predict the next value of the sequence identified by @p key, then
     * train on @p actual. Returns true iff the prediction was correct.
     * Keys encode (static pc, operand slot); tables may alias keys.
     */
    virtual bool predictAndUpdate(std::uint64_t key, Value actual) = 0;

    /**
     * The value that predictAndUpdate would currently predict for
     * @p key, without training; nullopt when the predictor has no
     * confident mapping yet. For tests, introspection, and
     * delayed-update wrappers.
     */
    virtual std::optional<Value> peek(std::uint64_t key) const = 0;

    /**
     * Train on @p actual without reporting a prediction outcome.
     * The default implementation reuses predictAndUpdate; concrete
     * predictors need not override it.
     */
    virtual void
    train(std::uint64_t key, Value actual)
    {
        (void)predictAndUpdate(key, actual);
    }

    /**
     * Warm the cache lines that predictAndUpdate(@p key) is about to
     * touch. A pure hint: must not allocate, train, or otherwise
     * change observable state, so issuing it for a key that is never
     * queried (or in a different order than the queries) is harmless.
     * Two stages for multi-level tables: prefetch() pulls first-level
     * state and is safe to issue far ahead; prefetchDeep() may *read*
     * first-level state to locate second-level lines, so it is only
     * effective once a prior prefetch() for the same key has landed.
     * Defaults: no-op, and deep aliases shallow.
     */
    virtual void prefetch(std::uint64_t /*key*/) const {}

    /** See prefetch(); second stage for multi-level predictors. */
    virtual void
    prefetchDeep(std::uint64_t key) const
    {
        prefetch(key);
    }

    /**
     * Whether batched callers (DpgAnalyzer::onBlock) should spend
     * cycles issuing prefetch hints for this predictor. Return true
     * only when lookups routinely miss the cache hierarchy — i.e. the
     * tables are DRAM-sized, like the FCM's shared level 2. For
     * cache-resident tables the hint pipeline costs more than the
     * misses it hides (measured: ~1.6x slowdown on the last-value
     * hot path), hence the conservative default.
     */
    virtual bool prefetchProfitable() const { return false; }

    /** Forget all learned state. */
    virtual void reset() = 0;

    /** Short name for reports ("last", "stride", "context"). */
    virtual std::string name() const = 0;

    /**
     * Occupancy / aliasing snapshot. Default: all zeros, for
     * predictors (e.g. user-supplied ones) that do not track it.
     */
    virtual PredTableStats
    tableStats() const
    {
        return PredTableStats{};
    }
};

/** The predictor families studied in the paper. */
enum class PredictorKind
{
    LastValue,
    Stride2Delta,
    Context,
};

/** All three kinds, in the paper's L / S / C presentation order. */
inline constexpr PredictorKind kAllPredictorKinds[] = {
    PredictorKind::LastValue,
    PredictorKind::Stride2Delta,
    PredictorKind::Context,
};

/** One-letter label used in the paper's figures (L / S / C). */
char predictorLetter(PredictorKind kind);

/** Full display name ("last-value", "stride", "context"). */
std::string predictorName(PredictorKind kind);

/**
 * The kinds @p name selects: all three for "all", else the one named
 * "last" (or "last-value"), "stride" or "context"; none otherwise.
 */
std::vector<PredictorKind> parsePredictors(std::string_view name);

/** Writes predictorName(kind), so logs and test names read by name. */
std::ostream &operator<<(std::ostream &os, PredictorKind kind);

/** Sizing knobs; defaults reproduce the paper's configuration. */
struct PredictorConfig
{
    unsigned tableBits = 16;   ///< log2 first-level / main table entries.
    unsigned l2Bits = 20;      ///< log2 FCM second-level entries.
    unsigned historyLen = 4;   ///< FCM context depth (values).
    bool sharedL2 = true;      ///< FCM second level shared across PCs.
};

/** Build a fresh predictor of @p kind sized by @p config. */
std::unique_ptr<ValuePredictor>
makeValuePredictor(PredictorKind kind,
                   const PredictorConfig &config = PredictorConfig{});

} // namespace ppm

#endif // PPM_PRED_VALUE_PREDICTOR_HH
