/**
 * @file
 * Pass-1 profiler: per-static-instruction dynamic execution counts.
 *
 * The DPG model classifies an arc as write-once (`wl`) when its producing
 * static instruction executes exactly once in the whole run — a global
 * property, so the analysis makes two deterministic passes: this profiler
 * first, then the full model with the profile in hand.
 */

#ifndef PPM_SIM_PROFILER_HH
#define PPM_SIM_PROFILER_HH

#include <cstdint>
#include <vector>

#include "sim/trace.hh"

namespace ppm {

/** Accumulates execution counts per static instruction. */
class ExecProfile : public TraceSink
{
  public:
    /** @p text_size is the number of static instructions. */
    explicit ExecProfile(StaticId text_size);

    void onInstr(const DynInstr &di) override;

    /** Batched counting: one tight loop, no per-instr virtual call. */
    void onBlock(std::span<const DynInstr> block) override;

    /** Times static instruction @p pc executed. */
    std::uint64_t count(StaticId pc) const;

    /** True when @p pc executed exactly once (write-once candidate). */
    bool executesOnce(StaticId pc) const;

    /** Total dynamic instructions observed. */
    std::uint64_t total() const { return total_; }

    /** Number of distinct static instructions that executed. */
    std::uint64_t staticTouched() const;

    /** Bytes held by the per-instruction count table. */
    std::uint64_t memoryBytes() const
    {
        return counts_.capacity() * sizeof(std::uint64_t);
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace ppm

#endif // PPM_SIM_PROFILER_HH
