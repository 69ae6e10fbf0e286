# bench_hotpath: run the analyzer hot-path microbenchmark (reduced
# budget/reps so tier-1 stays fast) and validate the emitted
# "ppm-hotpath-v2" JSON ("ppm-hotpath-v1" records — no "mode" field —
# are still accepted, so old artifacts keep validating). Informational:
# the test asserts schema and sanity, never absolute throughput — CI
# machines are too noisy for that. The JSON is uploaded as a CI
# artifact; the committed BENCH_hotpath.json at the repo root records
# the curated before/after numbers (full budget, quiet machine).
# Invoked as
#   cmake -DBENCH_BIN=<micro_hotpath> -DOUT=<json path> -P bench_hotpath.cmake

if(NOT BENCH_BIN OR NOT OUT)
    message(FATAL_ERROR "bench_hotpath: BENCH_BIN and OUT must be set")
endif()

file(REMOVE "${OUT}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            PPM_HOTPATH_INSTRS=200000 PPM_HOTPATH_REPS=3
            ${BENCH_BIN} ${OUT}
    RESULT_VARIABLE rv
    OUTPUT_QUIET)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench_hotpath: ${BENCH_BIN} exited with ${rv}")
endif()

if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "bench_hotpath: JSON not written to ${OUT}")
endif()
file(READ "${OUT}" doc)

# string(JSON) fatal-errors on malformed JSON or missing keys, so each
# GET below is itself a schema assertion.
string(JSON schema GET "${doc}" schema)
if(NOT (schema STREQUAL "ppm-hotpath-v3" OR
        schema STREQUAL "ppm-hotpath-v2" OR
        schema STREQUAL "ppm-hotpath-v1"))
    message(FATAL_ERROR "bench_hotpath: bad schema '${schema}'")
endif()

string(JSON budget GET "${doc}" instr_budget)
if(NOT budget EQUAL 200000)
    message(FATAL_ERROR
            "bench_hotpath: PPM_HOTPATH_INSTRS not honored "
            "(instr_budget=${budget})")
endif()

string(JSON head_workload GET "${doc}" headline workload)
string(JSON head_pred GET "${doc}" headline predictor)
if(NOT head_pred STREQUAL "context")
    message(FATAL_ERROR
            "bench_hotpath: headline predictor '${head_pred}' "
            "(expected context)")
endif()

string(JSON nscen LENGTH "${doc}" scenarios)
if(nscen LESS 2)
    message(FATAL_ERROR
            "bench_hotpath: expected >= 2 scenarios, got ${nscen}")
endif()

set(headline_ips "")
set(sweep_seq_ips "")
set(sweep_fused_ips "")
set(full_ips "")
set(sampled_ips "")
math(EXPR last "${nscen} - 1")
foreach(i RANGE ${last})
    string(JSON wl GET "${doc}" scenarios ${i} workload)
    string(JSON pred GET "${doc}" scenarios ${i} predictor)
    string(JSON dyn GET "${doc}" scenarios ${i} dyn_instrs)
    string(JSON sec GET "${doc}" scenarios ${i} best_sec)
    string(JSON ips GET "${doc}" scenarios ${i} instrs_per_sec)
    # "mode" arrived with v2; old records without it are per-cell
    # rows (mode "replay").
    string(JSON mode ERROR_VARIABLE mode_err
           GET "${doc}" scenarios ${i} mode)
    if(mode_err)
        set(mode "replay")
    endif()
    if(dyn LESS 1 OR ips LESS 1)
        message(FATAL_ERROR
                "bench_hotpath: scenario ${i} (${wl}/${pred}) has "
                "non-positive dyn_instrs=${dyn} or "
                "instrs_per_sec=${ips}")
    endif()
    if(wl STREQUAL head_workload AND pred STREQUAL head_pred AND
       mode STREQUAL "replay")
        set(headline_ips "${ips}")
    endif()
    if(mode STREQUAL "sweep-sequential")
        set(sweep_seq_ips "${ips}")
    elseif(mode STREQUAL "sweep-fused")
        set(sweep_fused_ips "${ips}")
    elseif(mode STREQUAL "analyze-full")
        set(full_ips "${ips}")
    elseif(mode STREQUAL "sampled")
        set(sampled_ips "${ips}")
    endif()
endforeach()

if(headline_ips STREQUAL "")
    message(FATAL_ERROR
            "bench_hotpath: headline ${head_workload}/${head_pred} "
            "missing from scenarios")
endif()

# v2+ emits the fused-sweep A/B pair; both modes must be present.
if(schema STREQUAL "ppm-hotpath-v2" OR schema STREQUAL "ppm-hotpath-v3")
    if(sweep_seq_ips STREQUAL "" OR sweep_fused_ips STREQUAL "")
        message(FATAL_ERROR
                "bench_hotpath: ${schema} report missing fused-sweep "
                "A/B rows (sequential='${sweep_seq_ips}' "
                "fused='${sweep_fused_ips}')")
    endif()
endif()

# v3 adds the phase-sampling A/B pair (analyze-full vs sampled).
if(schema STREQUAL "ppm-hotpath-v3")
    if(full_ips STREQUAL "" OR sampled_ips STREQUAL "")
        message(FATAL_ERROR
                "bench_hotpath: v3 report missing sampling A/B rows "
                "(analyze-full='${full_ips}' "
                "sampled='${sampled_ips}')")
    endif()
endif()

message(STATUS
        "bench_hotpath ok: ${nscen} scenarios, headline "
        "${head_workload}/${head_pred} = ${headline_ips} instrs/sec, "
        "sweep ${sweep_seq_ips} -> ${sweep_fused_ips} instrs/sec, "
        "sampling ${full_ips} -> ${sampled_ips} instrs/sec")
