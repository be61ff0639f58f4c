# Run PROGRAM --out=OUT_DIR, after emptying OUT_DIR, and compare every
# file it writes byte for byte with the file of the same name in
# GOLDEN_DIR. A file present on one side only fails the test too. The
# actual files stay in OUT_DIR; scripts/regen_goldens.sh prints the diff.
#
#   cmake -DPROGRAM=... -DGOLDEN_DIR=... -DOUT_DIR=... -P compare_dir.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(COMMAND "${PROGRAM}" "--out=${OUT_DIR}"
  INPUT_FILE /dev/null
  OUTPUT_QUIET
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} --out=${OUT_DIR} exited with ${rc}:\n"
    "${errors}")
endif()
file(GLOB expected RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
file(GLOB actual RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
list(SORT expected)
list(SORT actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${PROGRAM} wrote [${actual}] into ${OUT_DIR}; "
    "${GOLDEN_DIR} holds [${expected}]")
endif()
set(differ "")
foreach(name IN LISTS expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND differ "${name}")
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "${PROGRAM}: [${differ}] in ${OUT_DIR} differ from "
    "${GOLDEN_DIR}")
endif()
