# Script-mode ctest: chaos_fuzz creates a missing --out directory. Runs
# one campaign with the planted replay bug armed (so it violates an
# oracle and must write its reproducer) into a nested directory that
# does not exist yet, then requires the directory and the reproducer.
#
# Usage:
#   cmake -DCHAOS_FUZZ=<chaos_fuzz exe> -DOUT_ROOT=<scratch dir> \
#         -P chaos_fuzz_out_check.cmake
foreach(var CHAOS_FUZZ OUT_ROOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_ROOT}")
set(out_dir "${OUT_ROOT}/nested/out")
execute_process(
  COMMAND "${CHAOS_FUZZ}" --campaigns 1 --seed-base 2 --no-shrink
          --plant-skip-replay --out "${out_dir}"
  OUTPUT_VARIABLE fuzz_out
  ERROR_VARIABLE fuzz_err
  RESULT_VARIABLE fuzz_rc)
if(NOT fuzz_rc EQUAL 1)
  message(FATAL_ERROR
    "chaos_fuzz exited ${fuzz_rc}, expected 1 (planted violation):\n"
    "${fuzz_out}${fuzz_err}")
endif()
if(NOT IS_DIRECTORY "${out_dir}")
  message(FATAL_ERROR "chaos_fuzz did not create ${out_dir}")
endif()
if(NOT EXISTS "${out_dir}/chaos_repro_seed2.json")
  message(FATAL_ERROR "no reproducer under ${out_dir}:\n${fuzz_out}")
endif()
