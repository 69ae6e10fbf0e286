# golden_check: run one figure/table driver in quick mode with CSV
# output into a scratch directory, then require every expected CSV to
# be byte-identical to its checked-in golden under tests/goldens/.
# Invoked by ctest as
#   cmake -DBENCH_BIN=<driver> -DGOLDEN_DIR=<tests/goldens>
#         -DWORK_DIR=<scratch> -DEXPECT=<name,name,...>
#         -P golden_check.cmake
#
# Goldens are regenerated with tools/update_goldens; see TESTING.md.
# The model is integer-exact and the engine returns results in
# submission order, so the bytes are stable across thread counts and
# machines.

if(NOT BENCH_BIN OR NOT GOLDEN_DIR OR NOT WORK_DIR OR NOT EXPECT)
    message(FATAL_ERROR
            "golden_check: BENCH_BIN, GOLDEN_DIR, WORK_DIR and EXPECT "
            "must all be set")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# With -DOBS=ON the driver also captures spans and metrics; the CSVs
# must still match the goldens byte for byte — observability may never
# perturb model output.
set(obs_env "")
if(OBS)
    set(obs_env "PPM_TRACE_JSON=${WORK_DIR}/trace.json"
                "PPM_METRICS=${WORK_DIR}/metrics.json")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PPM_QUICK=1
            "PPM_CSV_DIR=${WORK_DIR}" ${obs_env}
            ${BENCH_BIN}
    RESULT_VARIABLE rv
    OUTPUT_QUIET)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "golden_check: ${BENCH_BIN} exited with ${rv}")
endif()

string(REPLACE "," ";" names "${EXPECT}")
foreach(name IN LISTS names)
    set(live "${WORK_DIR}/${name}.csv")
    set(gold "${GOLDEN_DIR}/${name}.csv")
    if(NOT EXISTS "${live}")
        message(FATAL_ERROR
                "golden_check: driver did not write ${live}")
    endif()
    if(NOT EXISTS "${gold}")
        message(FATAL_ERROR
                "golden_check: no golden ${gold} — run "
                "tools/update_goldens and commit the result")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${live}" "${gold}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        execute_process(COMMAND diff -u "${gold}" "${live}"
                        OUTPUT_VARIABLE delta ERROR_QUIET)
        message(FATAL_ERROR
                "golden_check: ${name}.csv diverged from its golden. "
                "If the change is intentional, regenerate with "
                "tools/update_goldens and commit.\n${delta}")
    endif()
endforeach()

list(LENGTH names n)
message(STATUS "golden_check ok: ${n} CSV(s) match goldens")
