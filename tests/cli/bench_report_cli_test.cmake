# CLI contract test for tools/bench_report, driven by ctest via `cmake -P`.
#
# Pins the gates CI builds on, as a shell user would hit them:
#   - diff exits 0 on a self-diff and on improvements, 1 when a row moves the
#     way its declared `better` says is worse (zero baselines included), and 2
#     on schema errors (a `better` that differs between the files, a snapshot
#     schema_version it does not understand, a row missing from the candidate)
#   - append skips a report whose SHA and rows equal the latest entry
#   - check exits 1 on a monotone regression of a declared row and skips
#     undeclared and wall-clock rows
#
# Expects: -DBENCH_REPORT=<path to binary> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs bench_report with ARGN and fails unless it exits `expected`; leaves the
# stdout in `last_out`.
function(expect_exit label expected)
  execute_process(COMMAND "${BENCH_REPORT}" ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${status}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: output missing \"${needle}\":\n${haystack}")
  endif()
endfunction()

# A BENCH report shaped like the committed ones: two capacity rows, a
# containment row whose baseline is 0, a work-size guard declaring nothing,
# and a wall-clock row.
function(write_report path sha max_vms hit_rate escapes packets wallclock
         max_vms_better)
  string(CONFIGURE [=[{
  "benchmark": "cli",
  "seed": 7,
  "git_sha": "@sha@",
  "shards": 1,
  "host_threads": 4,
  "metrics": [
    {"metric": "max_vms_2048mb_flash", "value": @max_vms@, "unit": "vms", "better": "@max_vms_better@"},
    {"metric": "density_prefetch_hit_rate", "value": @hit_rate@, "unit": "ratio", "better": "higher"},
    {"metric": "allowlist_escapes", "value": @escapes@, "unit": "count", "better": "lower"},
    {"metric": "packets_replayed", "value": @packets@, "unit": "pkts"},
    {"metric": "wallclock_ms", "value": @wallclock@, "unit": "ms", "better": "lower"}
  ]
}
]=] json @ONLY)
  file(WRITE "${path}" "${json}")
endfunction()

set(base "${WORK_DIR}/base.json")
write_report("${base}" aaa1111 1580 1.0 0 72139 900 higher)

# ---- diff ----

expect_exit("self-diff" 0 diff "${base}" "${base}")
expect_contains("self-diff" "${last_out}" "allowlist_escapes")
expect_contains("zero baseline prints no ratio" "${last_out}" "n/a")

write_report("${WORK_DIR}/drop.json" bbb 1264 1.0 0 72139 900 higher)
expect_exit("capacity falls 20%" 1 diff "${base}" "${WORK_DIR}/drop.json")
expect_contains("capacity falls 20%" "${last_out}" "REGRESSED")

write_report("${WORK_DIR}/rise.json" bbb 1896 1.0 0 72139 900 higher)
expect_exit("capacity rises 20%" 0 diff "${base}" "${WORK_DIR}/rise.json")

write_report("${WORK_DIR}/halved.json" bbb 1580 0.5 0 72139 900 higher)
expect_exit("hit rate halves" 1 diff "${base}" "${WORK_DIR}/halved.json")

write_report("${WORK_DIR}/escapes.json" bbb 1580 1.0 7 72139 900 higher)
expect_exit("escapes leave zero" 1 diff "${base}" "${WORK_DIR}/escapes.json")

# A row without `better` fails when it moves beyond the threshold either way.
write_report("${WORK_DIR}/more_work.json" bbb 1580 1.0 0 86567 900 higher)
expect_exit("work-size guard grows" 1 diff "${base}" "${WORK_DIR}/more_work.json")
write_report("${WORK_DIR}/less_work.json" bbb 1580 1.0 0 57711 900 higher)
expect_exit("work-size guard shrinks" 1 diff "${base}" "${WORK_DIR}/less_work.json")

# --metric-threshold repeats; the last one for a name wins.
expect_exit("last override wins (tight)" 1 diff
  --metric-threshold=max_vms_2048mb_flash=0.5
  --metric-threshold=max_vms_2048mb_flash=0.1
  "${base}" "${WORK_DIR}/drop.json")
expect_exit("last override wins (wide)" 0 diff
  --metric-threshold=max_vms_2048mb_flash=0.1
  --metric-threshold=max_vms_2048mb_flash=0.5
  "${base}" "${WORK_DIR}/drop.json")
expect_exit("global threshold" 0 diff --threshold=0.25
  "${base}" "${WORK_DIR}/drop.json")

write_report("${WORK_DIR}/flipped.json" bbb 1580 1.0 0 72139 900 lower)
expect_exit("better differs" 2 diff "${base}" "${WORK_DIR}/flipped.json")

file(WRITE "${WORK_DIR}/short.json" [=[{
  "benchmark": "cli",
  "git_sha": "bbb",
  "metrics": [
    {"metric": "max_vms_2048mb_flash", "value": 1580, "unit": "vms", "better": "higher"}
  ]
}
]=])
expect_exit("row missing from candidate" 2 diff "${base}" "${WORK_DIR}/short.json")
expect_exit("unreadable file" 2 diff "${base}" "${WORK_DIR}/no-such.json")
expect_exit("one path" 2 diff "${base}")
expect_exit("unknown flag" 2 diff --thresold=0.1 "${base}" "${base}")
expect_exit("no subcommand" 2 "${base}" "${base}")

# Health snapshots diff like reports; their rows declare no direction.
set(snapshot_json [=[{
  "snapshot": "honeyfarm",
  "schema_version": @version@,
  "sequence": 3,
  "time_ns": 12000000000,
  "alerts_schema_version": 1,
  "alerts": [],
  "metrics": [
    {"metric": "gateway.rx.packets", "value": 16, "unit": "count"},
    {"metric": "clone.completed", "value": 8, "unit": "count"}
  ]
}
]=])
set(version 1)
string(CONFIGURE "${snapshot_json}" json @ONLY)
file(WRITE "${WORK_DIR}/snapshot.json" "${json}")
set(version 999)
string(CONFIGURE "${snapshot_json}" json @ONLY)
file(WRITE "${WORK_DIR}/snapshot_999.json" "${json}")
expect_exit("snapshot self-diff" 0 diff
  "${WORK_DIR}/snapshot.json" "${WORK_DIR}/snapshot.json")
expect_exit("snapshot schema 999" 2 diff
  "${WORK_DIR}/snapshot_999.json" "${WORK_DIR}/snapshot.json")

# ---- append ----

set(trajectory "${WORK_DIR}/trajectory.jsonl")
expect_exit("first append" 0 append --out=${trajectory} "${base}")
expect_contains("first append" "${last_out}" "1 appended, 0 unchanged")
expect_exit("same SHA and rows" 0 append --out=${trajectory} "${base}")
expect_contains("same SHA and rows" "${last_out}" "0 appended, 1 unchanged")
file(READ "${trajectory}" history)
string(REGEX MATCHALL "\n" newlines "${history}")
list(LENGTH newlines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "append duplicated an unchanged report: ${count} lines")
endif()
expect_contains("entry keeps directions" "${history}"
  [=[["max_vms_2048mb_flash",1580,"vms","higher"]]=])
expect_contains("undeclared rows stay three elements" "${history}"
  [=[["packets_replayed",72139,"pkts"]]=])
expect_exit("append without inputs" 2 append --out=${trajectory})

# ---- check ----

# Two entries are below --last=3: nothing to call a trend on yet.
write_report("${WORK_DIR}/t2.json" ccc2222 1500 1.0 0 72139 900 higher)
expect_exit("append second" 0 append --out=${trajectory} "${WORK_DIR}/t2.json")
expect_exit("check with two entries" 0 check --last=3 --out=${trajectory})
expect_contains("check with two entries" "${last_out}" "0 series checked")

# Three entries of a monotone fall of a `higher` row, 11% in all.
write_report("${WORK_DIR}/t3.json" ddd3333 1400 1.0 0 72139 900 higher)
expect_exit("append third" 0 append --out=${trajectory} "${WORK_DIR}/t3.json")
expect_exit("monotone fall" 1 check --last=3 --tolerance=0.05
  --out=${trajectory})
expect_contains("monotone fall" "${last_out}"
  "REGRESSION cli / max_vms_2048mb_flash: monotone fall")

# Undeclared and wall-clock rows are never trend-checked, and three-element
# rows from entries written before rows declared a direction still load.
file(WRITE "${WORK_DIR}/exempt.jsonl"
  [=[{"trajectory_schema_version":1,"benchmark":"old","git_sha":"a","seed":0,"shards":1,"host_threads":4,"metrics":[["packets_replayed",100,"pkts"],["wallclock_ms",100,"ms","lower"],["p99",10,"ns","lower"]]}
{"trajectory_schema_version":1,"benchmark":"old","git_sha":"b","seed":0,"shards":1,"host_threads":4,"metrics":[["packets_replayed",200,"pkts"],["wallclock_ms",200,"ms","lower"],["p99",10,"ns","lower"]]}
{"trajectory_schema_version":1,"benchmark":"old","git_sha":"c","seed":0,"shards":1,"host_threads":4,"metrics":[["packets_replayed",300,"pkts"],["wallclock_ms",300,"ms","lower"],["p99",10,"ns","lower"]]}
]=])
expect_exit("exempt rows" 0 check --out=${WORK_DIR}/exempt.jsonl)
expect_contains("exempt rows" "${last_out}" "1 series checked across 1 benchmarks")
expect_exit("--last below 2" 2 check --last=1 --out=${trajectory})
expect_exit("empty trajectory" 2 check --out=${WORK_DIR}/no-such.jsonl)

message(STATUS "bench_report CLI contract OK")
