# Run PROGRAM with the arguments after `--` and pass only when it
# exits 0 and its stdout equals the file EXPECT_FILE byte for byte.
#
#   cmake -DPROGRAM=<amdahl_market> -DEXPECT_FILE=<path>
#         -P expect_stdout.cmake -- <arg>...
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
if(NOT status EQUAL 0)
    message(FATAL_ERROR "'${args}' exited ${status}:\n${out}${err}")
endif()
file(READ ${EXPECT_FILE} expected)
if(NOT out STREQUAL expected)
    message(FATAL_ERROR
        "stdout of '${args}' differs from ${EXPECT_FILE}:\n"
        "--- expected\n${expected}--- got\n${out}")
endif()
