# CLI contract test for examples/worm_outbreak, driven by ctest via `cmake -P`.
#
# Under --policy open, infected VMs reach the real Internet, so the closing
# verdict must read ESCAPED with a nonzero packet count. Run at the demo's
# default shard count: the count must cover every shard, not one.
#
# Expects: -DWORM_OUTBREAK=<path to binary>

execute_process(COMMAND "${WORM_OUTBREAK}" --policy open --minutes 0.25
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "worm_outbreak exited ${status}:\n${err}")
endif()
string(REGEX MATCH "containment verdict: ([0-9]+) packets[^\n]*\\(([A-Z]+)\\)"
       verdict "${out}")
if(NOT verdict)
  message(FATAL_ERROR "no containment verdict line:\n${out}")
endif()
if(CMAKE_MATCH_1 EQUAL 0 OR NOT CMAKE_MATCH_2 STREQUAL "ESCAPED")
  message(FATAL_ERROR "open policy must escape, got \"${verdict}\":\n${out}")
endif()
message(STATUS "worm_outbreak verdict OK: ${verdict}")
