# check_bench.cmake - run one bench with --json and compare its report with
# the committed baseline in this directory.
#
#   cmake -DBENCH=<bench binary> -DEXP=<E1, E6, ...> -DBASELINES=<this dir>
#         -DWORK=<scratch dir> [-DARGS="--smoke;--json"] -P check_bench.cmake
#
# Runs `<BENCH> <ARGS>` (a CMake list, default `--json`) in a fresh WORK
# directory, then requires BENCH_<EXP>.json to be byte-identical to the
# committed copy. The benches checked this way report only virtual time and
# event counts, so any difference is a real behaviour change.
foreach(var BENCH EXP BASELINES WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED ARGS)
  set(ARGS --json)
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${BENCH}" ${ARGS}
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_FILE "${WORK}/STDOUT_${EXP}.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()

set(report "BENCH_${EXP}.json")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK}/${report}" "${BASELINES}/${report}"
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${report} differs from the committed baseline "
                      "(outputs kept in ${WORK})")
endif()
message(STATUS "${report} matches the committed baseline")
