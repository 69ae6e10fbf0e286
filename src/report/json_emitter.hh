/**
 * @file
 * JSON serialization of DpgStats for machine consumption (plotting
 * pipelines, regression tracking): the `ppm analyze --report json`
 * document, built with support/mini_json's JsonWriter.
 */

#ifndef PPM_REPORT_JSON_EMITTER_HH
#define PPM_REPORT_JSON_EMITTER_HH

#include <string>

#include "dpg/dpg_analyzer.hh"

namespace ppm {

/**
 * @p stats as a single JSON object and a newline: run metadata, the
 * raw node/arc/branch counters, the figure percentages, and the
 * cumulative curves. Stable key order; valid UTF-8 JSON.
 */
std::string toJson(const DpgStats &stats);

} // namespace ppm

#endif // PPM_REPORT_JSON_EMITTER_HH
