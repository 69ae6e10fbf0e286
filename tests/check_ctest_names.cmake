# ctest_names_stable: fail if any discovered ctest name embeds raw
# parameter bytes ("32-byte object <5B-DC ...>"). gtest prints a
# parameter without a printer as its object bytes, and a pointer among
# those bytes changes with every run under ASLR, so the test's ctest
# name would change on every build. Invoked by ctest as
#   cmake -DCTEST=<ctest> -DDIR=<build dir> -P check_ctest_names.cmake

if(NOT CTEST OR NOT DIR)
    message(FATAL_ERROR "ctest_names_stable: CTEST and DIR must be set")
endif()

execute_process(
    COMMAND ${CTEST} -N
    WORKING_DIRECTORY ${DIR}
    OUTPUT_VARIABLE listing
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ctest_names_stable: ctest -N exited with ${rv}")
endif()

# Guard against a vacuous pass: the gtest cases must be discovered.
string(FIND "${listing}" "IntegerOps/AluTest.ComputesExpected/" alu)
if(alu EQUAL -1)
    message(FATAL_ERROR
            "ctest_names_stable: no discovered gtest names to check")
endif()

string(REPLACE "\n" ";" lines "${listing}")
set(bad "")
foreach(line IN LISTS lines)
    string(FIND "${line}" "byte object <" pos)
    if(NOT pos EQUAL -1)
        string(APPEND bad "\n  ${line}")
    endif()
endforeach()
if(bad)
    message(FATAL_ERROR
            "ctest_names_stable: names embed raw parameter bytes; give "
            "the suite a parameter printer and a name generator:${bad}")
endif()
message(STATUS "ctest_names_stable ok")
