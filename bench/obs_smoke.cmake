# obs_smoke: run one figure driver in quick mode with the full
# observability layer on (span capture to PPM_TRACE_JSON, metrics dump
# to PPM_METRICS), then validate both exports with ppm_obs_check:
# well-formed JSON, Chrome-trace shape, span nesting per thread, and
# counter consistency against the span counts. Invoked by ctest as
#   cmake -DBENCH_BIN=<driver> -DCHECK_BIN=<ppm_obs_check>
#         -DWORK_DIR=<scratch> [-DSAMPLE=<interval,warmup,maxphases>]
#         -P obs_smoke.cmake
# where SAMPLE, when set, runs the driver with that PPM_SAMPLE.

if(NOT BENCH_BIN OR NOT CHECK_BIN OR NOT WORK_DIR)
    message(FATAL_ERROR
            "obs_smoke: BENCH_BIN, CHECK_BIN and WORK_DIR must be set")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/trace.json")
set(metrics "${WORK_DIR}/metrics.json")

set(sample_env "")
if(SAMPLE)
    set(sample_env "PPM_SAMPLE=${SAMPLE}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PPM_QUICK=1
            "PPM_TRACE_JSON=${trace}" "PPM_METRICS=${metrics}"
            ${sample_env} ${BENCH_BIN}
    RESULT_VARIABLE rv
    OUTPUT_QUIET)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "obs_smoke: ${BENCH_BIN} exited with ${rv}")
endif()

foreach(out IN ITEMS "${trace}" "${metrics}")
    if(NOT EXISTS "${out}")
        message(FATAL_ERROR "obs_smoke: driver did not write ${out}")
    endif()
endforeach()

execute_process(
    COMMAND ${CHECK_BIN} "${trace}" "${metrics}"
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "obs_smoke: ppm_obs_check failed (${rv})")
endif()

message(STATUS "obs_smoke ok")
