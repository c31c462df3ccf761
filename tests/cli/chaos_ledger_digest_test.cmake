# Golden digests of farm_chaos's event ledger, driven by ctest via `cmake -P`.
#
# CI's chaos-smoke job replays the same run twice and `cmp`s the ledgers,
# which only proves determinism: a change that alters the control plane's
# history in both runs passes that. This test pins the ledgers themselves at
# the smoke job's arguments, at 2 and at 4 gateway shards. Each ledger is
# about 70 MB; its SHA-256 is the same in Release and in the default
# RelWithDebInfo build. The test deletes the artifacts once checked. A change
# that alters a ledger on purpose updates the digest here and says why in
# CHANGES.md.
#
# Expects: -DFARM_CHAOS=<path to binary> -DWORK_DIR=<scratch dir>

set(expected_sha256_2
    "e0c018468812644ddd857b65e2e943dfbbfd8ad5a62dc8fae1fa51763f65a298")
set(expected_sha256_4
    "64ea4bec31f32bc93cfdd9b4874a9e1e18effdc526539aec97830ecc14ba0b3e")

file(REMOVE_RECURSE "${WORK_DIR}")

foreach(shards 2 4)
  set(out "${WORK_DIR}/shards${shards}")
  file(MAKE_DIRECTORY "${out}")
  execute_process(
      COMMAND "${FARM_CHAOS}" --minutes 2 --seed 7 --shards ${shards}
              --prefix-bits 24 --scan-rate 3 --ledger-bits 20 --out ${out}
      RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
      "farm_chaos at ${shards} shards: expected exit 0, got ${status}\n"
      "${stdout}${stderr}")
  endif()
  file(READ "${out}/chaos_report.json" report)
  string(FIND "${report}" "\"orphaned_vms\":0," at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "chaos_report at ${shards} shards lacks \"orphaned_vms\":0:\n${report}")
  endif()
  file(SHA256 "${out}/ledger.jsonl" digest)
  file(REMOVE_RECURSE "${out}")
  if(NOT digest STREQUAL expected_sha256_${shards})
    message(FATAL_ERROR
      "farm_chaos ledger at ${shards} shards changed: sha256 ${digest}, "
      "expected ${expected_sha256_${shards}}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
