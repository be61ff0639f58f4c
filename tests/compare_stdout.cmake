# Run PROGRAM with ARGS (one string, split like a shell command line) and
# compare its stdout byte for byte with the file GOLDEN. On a mismatch the
# actual bytes go to ACTUAL and the test fails naming both files;
# scripts/regen_goldens.sh prints the diff.
#
#   cmake -DPROGRAM=... -DARGS=... -DGOLDEN=... -DACTUAL=... \
#     -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  INPUT_FILE /dev/null
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}:\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}\n"
    "actual bytes: ${ACTUAL}")
endif()
