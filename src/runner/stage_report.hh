/**
 * @file
 * Stage-timing reports for the experiment engine: a machine-readable
 * JSON document (the PPM_BENCH_JSON hook — schema
 * "ppm-bench-timing-v3", validated by the bench_smoke ctest) and a
 * one-paragraph human summary the bench drivers print to stderr, so
 * every figure binary reports assemble / simulate / analyze wall
 * times and model throughput for perf-trajectory tracking.
 */

#ifndef PPM_RUNNER_STAGE_REPORT_HH
#define PPM_RUNNER_STAGE_REPORT_HH

#include <iosfwd>

namespace ppm {

class ExperimentEngine;

/** The "ppm-bench-timing-v3" JSON document for @p engine's history. */
void writeBenchJson(std::ostream &os, const ExperimentEngine &engine);

/** Human-readable stage summary ("N runs, M simulations, ..."). */
void printStageSummary(std::ostream &os,
                       const ExperimentEngine &engine);

} // namespace ppm

#endif // PPM_RUNNER_STAGE_REPORT_HH
