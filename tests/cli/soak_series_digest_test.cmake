# Golden digest of bench_soak's telemetry series, driven by ctest via
# `cmake -P`.
#
# CI also runs the soak twice and `cmp`s the two series, which only proves
# determinism: a change that alters the series in both runs passes that.
# This test pins the series itself. The seed-21, 30-minute, 1 s series is
# 1,830 lines (header plus 1,829 samples) and about 14.5 MB; its SHA-256 is
# the same in Release, in the default RelWithDebInfo build and under
# ASan+UBSan. A change that alters the series on purpose updates
# `expected_sha256` and says why in CHANGES.md.
#
# Also pins bench_soak's usage error for a zero sampling interval, which
# would otherwise schedule a one-shot "periodic" sampler.
#
# Expects: -DBENCH_SOAK=<path to binary> -DWORK_DIR=<scratch dir>

set(expected_sha256
    "57447aa4bae6675510b776971be253b0fcbb0d39b151fea2d36dea60dbe31f7f")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_status label expected actual output)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${actual}\n${output}")
  endif()
endfunction()

# --no-bench keeps the run from writing a BENCH_soak.json report.
set(series "${WORK_DIR}/series.jsonl")
execute_process(
    COMMAND "${BENCH_SOAK}" --minutes=30 --seed=21 --shards=2
            --interval-ms=1000 --series-out=${series} --no-bench
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("soak run" 0 "${status}" "${out}${err}")
file(SHA256 "${series}" digest)
if(NOT digest STREQUAL expected_sha256)
  file(STRINGS "${series}" lines)
  list(LENGTH lines line_count)
  message(FATAL_ERROR
    "soak series changed: sha256 ${digest}, expected ${expected_sha256} "
    "(${line_count} lines in ${series})")
endif()

# A zero interval is a usage error, reported before any farm is built.
set(zero_series "${WORK_DIR}/zero_interval.jsonl")
execute_process(
    COMMAND "${BENCH_SOAK}" --minutes=1 --interval-ms=0
            --series-out=${zero_series} --no-bench
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("--interval-ms=0" 2 "${status}" "${out}${err}")
string(FIND "${err}" "usage: bench_soak" at)
if(at EQUAL -1)
  message(FATAL_ERROR "--interval-ms=0: stderr lacks the usage text:\n${err}")
endif()
if(EXISTS "${zero_series}")
  message(FATAL_ERROR "--interval-ms=0 wrote a series before failing")
endif()
