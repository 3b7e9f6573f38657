# Run PROGRAM with the arguments after `--` and pass only when it
# exits non-zero with output matching EXPECT. A ctest
# PASS_REGULAR_EXPRESSION alone would ignore the exit status.
#
#   cmake -DPROGRAM=<amdahl_market> -DEXPECT=<regex>
#         -P expect_rejected.cmake -- <arg>...
set(args)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collect)
        list(APPEND args "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(collect ON)
    endif()
endforeach()
execute_process(
    COMMAND ${PROGRAM} ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "accepted '${args}':\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "rejection of '${args}' does not match '${EXPECT}':\n${out}${err}")
endif()
