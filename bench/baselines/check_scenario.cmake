# check_scenario.cmake - run one bundled scenario and compare its outputs
# with the committed baselines in this directory.
#
#   cmake -DRUNNER=<scenario_runner> -DSPEC=<name> -DBASELINES=<this dir>
#         -DWORK=<scratch dir> -P check_scenario.cmake
#
# Runs `scenario_runner <SPEC> --json --timeline` in a fresh WORK directory,
# then requires SCENARIO_<SPEC>.json to be byte-identical to the committed
# copy and TIMELINE_<SPEC>.json plus the captured stdout to match the SHA-256
# digests in SCENARIO_OUTPUTS.sha256 (the timelines are megabytes, so only
# their digests are committed). Every scalar in these files is virtual time
# or an event count, so any difference is a real behaviour change.
foreach(var RUNNER SPEC BASELINES WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_scenario.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(stdout_name "STDOUT_${SPEC}.txt")
execute_process(
  COMMAND "${RUNNER}" "${SPEC}" --json --timeline
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_FILE "${WORK}/${stdout_name}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario_runner ${SPEC} exited ${rc}")
endif()

set(failed "")
set(report "SCENARIO_${SPEC}.json")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK}/${report}" "${BASELINES}/${report}"
  RESULT_VARIABLE differs)
if(differs)
  list(APPEND failed "${report} differs from the committed baseline")
endif()

file(STRINGS "${BASELINES}/SCENARIO_OUTPUTS.sha256" digests)
foreach(name "TIMELINE_${SPEC}.json" "${stdout_name}")
  set(want "")
  foreach(line IN LISTS digests)
    if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL name)
      set(want "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  if(want STREQUAL "")
    list(APPEND failed "no committed digest for ${name}")
  elseif(NOT EXISTS "${WORK}/${name}")
    list(APPEND failed "${name} was not written")
  else()
    file(SHA256 "${WORK}/${name}" got)
    if(NOT got STREQUAL want)
      list(APPEND failed "${name}: sha256 ${got}, baseline ${want}")
    endif()
  endif()
endforeach()

if(failed)
  list(JOIN failed "\n  " msg)
  message(FATAL_ERROR "scenario ${SPEC} drifted from its baseline "
                      "(outputs kept in ${WORK}):\n  ${msg}")
endif()
message(STATUS "scenario ${SPEC}: report, timeline and stdout match")
