# Runs one sjs_digest invocation and fails unless its output is
# byte-identical to a committed baseline. Used by the DigestGate.* tests:
#   cmake -DDIGEST=<sjs_digest> -DARGS="--cluster;--threads;1,4"
#         -DBASELINE=<file> -P digest_check.cmake
execute_process(COMMAND ${DIGEST} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "sjs_digest ${ARGS} exited with ${status}")
endif()
file(READ ${BASELINE} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "sjs_digest ${ARGS} drifted from ${BASELINE}:\n"
                      "${actual}")
endif()
