# CLI contract test for the tools that write forensic artifacts, driven by
# ctest via `cmake -P`: a write that fails is reported with its path and exit
# status 2, never skipped in silence.
#
# Expects: -DFARM_CHAOS=<path> -DWORM_OUTBREAK=<path> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/out")
set(missing "${WORK_DIR}/missing/x")

function(expect_status label expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: output missing \"${needle}\":\n${haystack}")
  endif()
endfunction()

# farm_chaos into a directory that does not exist.
execute_process(COMMAND "${FARM_CHAOS}" --minutes 0.2 --seed 7 --out "${missing}"
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("farm_chaos missing dir" 2 "${status}")
expect_contains("farm_chaos missing dir" "${err}" "${missing}/ledger.jsonl")

# The same run into a directory that exists writes both artifacts.
execute_process(COMMAND "${FARM_CHAOS}" --minutes 0.2 --seed 7
                    --out "${WORK_DIR}/out"
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("farm_chaos" 0 "${status}")
foreach(artifact ledger.jsonl chaos_report.json)
  if(NOT EXISTS "${WORK_DIR}/out/${artifact}")
    message(FATAL_ERROR "farm_chaos wrote no ${artifact}")
  endif()
endforeach()
file(READ "${WORK_DIR}/out/chaos_report.json" report)
expect_contains("chaos_report.json" "${report}" "\"contained\":true")

# worm_outbreak's post-mortem directory that does not exist.
execute_process(
    COMMAND "${WORM_OUTBREAK}" --minutes 0.25 --postmortem-dir "${missing}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("worm_outbreak missing dir" 2 "${status}")
expect_contains("worm_outbreak missing dir" "${err}" "${missing}/ledger.jsonl")

message(STATUS "artifact write CLI contract OK")
