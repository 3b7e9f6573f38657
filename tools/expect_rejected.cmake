# Run `ANALYZER trace analyze TRACE` and pass only when it exits
# non-zero with output matching EXPECT. A ctest PASS_REGULAR_EXPRESSION
# alone would ignore the exit status.
#
#   cmake -DANALYZER=<amdahl_market> -DTRACE=<file> -DEXPECT=<regex>
#         -P expect_rejected.cmake
execute_process(
    COMMAND ${ANALYZER} trace analyze ${TRACE}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "accepted ${TRACE}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "rejection of ${TRACE} does not match '${EXPECT}':\n${out}${err}")
endif()
