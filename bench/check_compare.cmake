# check_compare.cmake - the `--compare` gate must fail a bench whose tables
# differ from a baseline that has no scalar metrics, and pass it against the
# unchanged baseline.
#
#   cmake -DBENCH=<bench binary> -DEXP=<E3, ...> -DBASELINES=<bench/baselines>
#         -DWORK=<scratch dir> -DFROM=<text> -DTO=<text> -P check_compare.cmake
#
# FROM must occur exactly once in the committed BENCH_<EXP>.json; the
# changed copy replaces it with TO (one table cell).
foreach(var BENCH EXP BASELINES WORK FROM TO)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_compare.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(report "${BASELINES}/BENCH_${EXP}.json")
file(READ "${report}" json)
string(REPLACE "${FROM}" "" rest "${json}")
string(LENGTH "${json}" whole)
string(LENGTH "${rest}" shorter)
string(LENGTH "${FROM}" cut)
math(EXPR removed "${whole} - ${shorter}")
if(NOT removed EQUAL cut)
  message(FATAL_ERROR "'${FROM}' must occur exactly once in ${report}")
endif()
string(REPLACE "${FROM}" "${TO}" changed "${json}")
file(WRITE "${WORK}/changed.json" "${changed}")

foreach(baseline "${report}" "${WORK}/changed.json")
  execute_process(
    COMMAND "${BENCH}" --compare "${baseline}" --compare-threshold=0
    WORKING_DIRECTORY "${WORK}"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  list(APPEND results ${rc})
endforeach()
if(NOT results STREQUAL "0;1")
  message(FATAL_ERROR "--compare exited ${results} against the committed "
                      "and the changed baseline; expected 0;1")
endif()
message(STATUS "--compare passes ${report} and fails a changed table cell")
