/**
 * @file
 * External branch-trace intake: parse CBP/ChampSim-style text records
 * (`<pc> <taken>` per line) and replay them onto the TraceSink
 * interface, so real-machine branch streams flow through the exact
 * same analyzer as simulated YISA programs.
 *
 * The trace carries control flow only, so the importer synthesizes a
 * minimal static program around it: one branch-shaped instruction per
 * distinct pc (dense StaticId by first appearance) whose operands are
 * immediates — the same encoding the simulator uses for zero-register
 * reads. Branch-direction state (gshare accuracy, per-static branch
 * stats, UnpredFlow classification) is then exact; the value side of
 * the model degenerates honestly to immediate-generated nodes rather
 * than being faked. Driven by `ppm import` and the serve daemon's
 * `trace` requests (both through analyzeImported), which render the
 * result in the same ppm-fingerprint-v1 schema as the fuzz farm.
 */

#ifndef PPM_RUNNER_TRACE_IMPORT_HH
#define PPM_RUNNER_TRACE_IMPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "asmr/program.hh"
#include "runner/sampled_run.hh"
#include "sim/trace.hh"

namespace ppm {

/** A parsed external branch trace, ready to replay. */
struct ImportedTrace
{
    /** Synthetic program: one conditional branch per distinct pc. */
    Program program;

    /** Static index of each dynamic record, in trace order. */
    std::vector<StaticId> stream;

    /** Taken bit of each dynamic record (parallel to stream). */
    std::vector<bool> taken;

    /** Distinct branch pcs seen. */
    StaticId staticBranches() const { return program.textSize(); }
};

/**
 * Parse a text branch trace from @p in. Accepted record shape, one
 * per line: `<pc> <outcome>` with pc hex (with or without 0x; no
 * sign), outcome in {1,0,T,N,t,n}; anything after the outcome field
 * is ignored (ChampSim text dumps carry a target there). Blank lines
 * and `#` comments are skipped. Throws std::runtime_error with the
 * line number on malformed records or an empty trace.
 */
ImportedTrace parseBranchTrace(std::istream &in,
                               const std::string &name);

/**
 * Replay the imported records into @p sink one instruction at a time,
 * then onRunEnd, synthesizing each DynInstr exactly as the simulator
 * would emit a two-immediate conditional branch.
 */
void replayImported(const ImportedTrace &trace, TraceSink &sink);

/**
 * The two-pass analysis of @p trace for every config in @p configs:
 * profile it (pass 1, timing.simulateSec), then replay it once into
 * one lane per config (pass 2, analyzeStream). Stats are in config
 * order.
 */
SampledResult analyzeImported(const ImportedTrace &trace,
                              const std::vector<DpgConfig> &configs);

} // namespace ppm

#endif // PPM_RUNNER_TRACE_IMPORT_HH
