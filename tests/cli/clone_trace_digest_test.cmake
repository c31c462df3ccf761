# Golden clone-phase trace of bench_clone_breakdown, driven by ctest via
# `cmake -P`.
#
# CI's perf-smoke job checks only the trace's shape (tracks, "X" spans,
# nonnegative durations). This test pins the trace itself: the bench renders
# TRACE_clone_phases.json from the CloneTiming of its three engine clones, and
# the fresh file must equal the committed one byte for byte (3 tracks, 22
# spans, microsecond timestamps printed with %.3f). A change that alters the
# trace on purpose re-records the committed file and says why in CHANGES.md.
#
# Expects: -DBENCH_CLONE_BREAKDOWN=<path to binary> -DWORK_DIR=<scratch dir>
#          -DEXPECTED=<committed TRACE_clone_phases.json>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The bench writes its reports to POTEMKIN_BENCH_DIR, so the committed files
# stay untouched.
set(ENV{POTEMKIN_BENCH_DIR} "${WORK_DIR}")
execute_process(
    COMMAND "${BENCH_CLONE_BREAKDOWN}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "bench_clone_breakdown: expected exit 0, got ${status}\n${out}${err}")
endif()

set(trace "${WORK_DIR}/TRACE_clone_phases.json")
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "bench_clone_breakdown wrote no ${trace}\n${err}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${trace}" "${EXPECTED}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(SHA256 "${trace}" fresh_sha256)
  file(SHA256 "${EXPECTED}" expected_sha256)
  message(FATAL_ERROR
    "clone-phase trace changed: ${trace} (sha256 ${fresh_sha256}) differs "
    "from ${EXPECTED} (sha256 ${expected_sha256})")
endif()
