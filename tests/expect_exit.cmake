# Runs EXE with ARGS (comma-separated) and fails unless it exits with
# code EXPECT_RC and its stdout + stderr match EXPECT_REGEX:
#
#   cmake -DEXE=prog -DARGS=--flag,value -DEXPECT_RC=2
#         -DEXPECT_REGEX=message -P expect_exit.cmake
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXPECT_RC}")
    message(FATAL_ERROR "${EXE} exited ${rc}, expected ${EXPECT_RC}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}")
endif()
