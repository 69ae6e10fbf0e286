/**
 * @file
 * Tool version plus the document schemas this build reads and writes.
 * `ppm --version` prints this table so scripts can check at startup
 * that a daemon or corpus file speaks the schema they expect.
 */

#ifndef PPM_SUPPORT_VERSION_HH
#define PPM_SUPPORT_VERSION_HH

namespace ppm {

/** Tool release; bumped when any schema below changes. */
inline constexpr const char *kPpmVersion = "0.11.0";

/** Every versioned document schema this build emits or accepts. */
inline constexpr const char *kPpmSchemas[] = {
    "ppm-fingerprint-v1", ///< One analyzed program (verify/fingerprint.hh).
    "ppm-fuzz-corpus-v1", ///< Fuzz-farm fingerprint corpus.
    "ppm-serve-v1",       ///< Serve daemon request/response (serve/protocol.hh).
    "ppm-bench-timing-v3",///< Stage-timing report (runner/stage_report.hh).
    "ppm-metrics-v1",     ///< Metrics registry dump (obs/obs.hh).
    "ppm-converge-v1",    ///< Sampled-vs-full convergence curves (`ppm converge`).
};

} // namespace ppm

#endif // PPM_SUPPORT_VERSION_HH
