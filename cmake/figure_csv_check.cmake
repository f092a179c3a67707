# Script-mode ctest: the figure CSVs regenerate byte-identically. Runs
# each bench in a fresh directory, then requires every CSV it wrote to
# equal the committed copy under bench_results/ byte for byte (virtual
# time is deterministic, so any difference is a modeled-number change).
#
# Usage:
#   cmake -DBENCH_DIR=<dir of bench exes> -DBENCHES=<a,b,...> \
#         -DEXPECTED_DIR=<repo>/bench_results -DOUT_DIR=<scratch dir> \
#         -P figure_csv_check.cmake
foreach(var BENCH_DIR BENCHES EXPECTED_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
string(REPLACE "," ";" bench_list "${BENCHES}")
foreach(bench ${bench_list})
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}"
    WORKING_DIRECTORY "${OUT_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE bench_err
    RESULT_VARIABLE bench_rc)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (rc=${bench_rc}): ${bench_err}")
  endif()
endforeach()

file(GLOB written "${OUT_DIR}/bench_results/*.csv")
if(NOT written)
  message(FATAL_ERROR "the benches wrote no CSV under ${OUT_DIR}")
endif()
foreach(csv ${written})
  get_filename_component(name "${csv}" NAME)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${csv}"
            "${EXPECTED_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name} differs from the committed "
                        "bench_results/${name} (fresh copy: ${csv})")
  endif()
  message("${name}: identical")
endforeach()
