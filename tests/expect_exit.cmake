# Runs one command and fails unless it exits with the expected status.
#   cmake -DCMD=<exe> -DARGS=<;-list> -DEXPECT=<status> -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${CMD} ${ARGS}: exit status '${status}', expected ${EXPECT}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
