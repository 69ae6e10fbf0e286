/**
 * @file
 * The dynamic-instruction trace interface between simulator and model.
 *
 * The functional simulator emits one DynInstr per executed instruction.
 * Consumers (the exec-count profiler, the DPG analyzer, test recorders)
 * implement TraceSink. The record carries everything the predictability
 * model needs: operand kinds and values, the output location and value,
 * pass-through designation, and control outcome. Producer identity is
 * *not* carried — the analyzer reconstructs it from output locations,
 * which is exact because each location holds exactly one live value.
 */

#ifndef PPM_SIM_TRACE_HH
#define PPM_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "isa/instruction.hh"
#include "support/types.hh"

namespace ppm {

/** The kind of one dynamic input operand. */
enum class InputKind : std::uint8_t
{
    Reg,  ///< A register source (true dependence arc).
    Mem,  ///< The memory word a load reads (arc from the store / D node).
    Imm,  ///< An immediate, including reads of the zero register.
};

/** One dynamic input operand. */
struct DynInput
{
    InputKind kind = InputKind::Imm;
    Value value = 0;
    RegIndex reg = 0;  ///< Valid when kind == Reg.
    Addr addr = 0;     ///< Valid when kind == Mem.
};

/** One executed instruction, as seen by TraceSink. */
struct DynInstr
{
    NodeId seq = 0;           ///< Dynamic sequence number (0-based).
    StaticId pc = 0;          ///< Static instruction index.
    const Instruction *instr = nullptr;

    std::uint8_t numInputs = 0;
    std::array<DynInput, 3> inputs;

    bool hasRegOutput = false;
    RegIndex outReg = 0;
    bool hasMemOutput = false;
    Addr outAddr = 0;
    Value outValue = 0;       ///< Valid when any output exists.

    /** In-instruction: the produced value is a D (input data) node. */
    bool outputIsData = false;

    /**
     * Pass-through (load/store/jr): output predictability is copied from
     * inputs[passSlot] instead of consulting the output predictor.
     */
    bool isPassThrough = false;
    std::uint8_t passSlot = 0;

    bool isBranch = false;
    bool taken = false;       ///< Valid when isBranch.
    bool isJump = false;

    /** Convenience: does this node produce a value that flows onward? */
    bool
    hasValueOutput() const
    {
        return hasRegOutput || hasMemOutput;
    }
};

/** Consumer of the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per executed instruction, in program order. */
    virtual void onInstr(const DynInstr &di) = 0;

    /**
     * Called with a batch of consecutive instructions, in program
     * order. Semantically identical to calling onInstr for each
     * element; producers that buffer (imported-trace replay, fused
     * lanes, benchmarks feeding a recorded stream) use this to
     * amortize virtual dispatch, and DpgAnalyzer overrides it to
     * batch-process and prefetch upcoming predictor/table state. The
     * default simply loops, so implementing onInstr alone stays
     * correct.
     */
    virtual void
    onBlock(std::span<const DynInstr> block)
    {
        for (const DynInstr &di : block)
            onInstr(di);
    }

    /** Called after the last instruction of a run. */
    virtual void onRunEnd() {}
};

/** Fans one DynInstr stream out to several sinks (e.g. two profilers). */
class TeeSink : public TraceSink
{
  public:
    explicit TeeSink(std::vector<TraceSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void
    onInstr(const DynInstr &di) override
    {
        for (TraceSink *sink : sinks_)
            sink->onInstr(di);
    }

    void
    onRunEnd() override
    {
        for (TraceSink *sink : sinks_)
            sink->onRunEnd();
    }

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace ppm

#endif // PPM_SIM_TRACE_HH
