#include "pred/predictor_bank.hh"

#include <cassert>
#include <ostream>

#include "pred/context_predictor.hh"
#include "pred/last_value_predictor.hh"
#include "pred/stride_predictor.hh"

namespace ppm {

char
predictorLetter(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue: return 'L';
      case PredictorKind::Stride2Delta: return 'S';
      case PredictorKind::Context: return 'C';
    }
    return '?';
}

std::string
predictorName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue: return "last-value";
      case PredictorKind::Stride2Delta: return "stride";
      case PredictorKind::Context: return "context";
    }
    return "unknown";
}

std::vector<PredictorKind>
parsePredictors(std::string_view name)
{
    std::vector<PredictorKind> kinds;
    for (PredictorKind kind : kAllPredictorKinds) {
        if (name == "all" || name == predictorName(kind) ||
            (name == "last" && kind == PredictorKind::LastValue))
            kinds.push_back(kind);
    }
    return kinds;
}

std::ostream &
operator<<(std::ostream &os, PredictorKind kind)
{
    return os << predictorName(kind);
}

std::unique_ptr<ValuePredictor>
makeValuePredictor(PredictorKind kind, const PredictorConfig &config)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return std::make_unique<LastValuePredictor>(config);
      case PredictorKind::Stride2Delta:
        return std::make_unique<StridePredictor>(config);
      case PredictorKind::Context:
        return std::make_unique<ContextPredictor>(config);
    }
    return nullptr;
}

PredictorBank::PredictorBank(PredictorKind kind,
                             const PredictorConfig &config,
                             unsigned gshare_bits)
    : output_(makeValuePredictor(kind, config)),
      input_(makeValuePredictor(kind, config)),
      gshare_(gshare_bits)
{
}

PredictorBank::PredictorBank(std::unique_ptr<ValuePredictor> output_pred,
                             std::unique_ptr<ValuePredictor> input_pred,
                             unsigned gshare_bits)
    : output_(std::move(output_pred)),
      input_(std::move(input_pred)),
      gshare_(gshare_bits)
{
    assert(output_ && input_);
}

std::uint64_t
PredictorBank::inputKey(StaticId pc, unsigned slot)
{
    // Spread operand slots apart so they see distinct table entries
    // (subject to the table's normal aliasing).
    return (std::uint64_t(pc) << 2) | (slot & 3);
}

bool
PredictorBank::predictOutput(StaticId pc, Value actual)
{
    const bool correct = output_->predictAndUpdate(pc, actual);
    ++tallies_.outputLookups;
    tallies_.outputHits += correct ? 1 : 0;
    return correct;
}

bool
PredictorBank::predictInput(StaticId pc, unsigned slot, Value actual)
{
    const bool correct =
        input_->predictAndUpdate(inputKey(pc, slot), actual);
    ++tallies_.inputLookups;
    tallies_.inputHits += correct ? 1 : 0;
    return correct;
}

bool
PredictorBank::predictBranch(StaticId pc, bool taken)
{
    return gshare_.predictAndUpdate(pc, taken);
}

void
PredictorBank::reset()
{
    output_->reset();
    input_->reset();
    gshare_.reset();
    tallies_ = Tallies{};
}

} // namespace ppm
