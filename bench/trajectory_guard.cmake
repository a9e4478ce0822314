# CTest guard for the tracked perf-trajectory files (bench_trajectory_guard).
#
# The three repo-root BENCH_*.json files are full-run sweeps refreshed by
# running the trajectory benches without --smoke from the repository root.
# Historically they kept getting clobbered by `ctest -L bench_smoke`, which
# ran the same binaries in smoke mode from the same directory — leaving
# millisecond-scale records marked "smoke":"1" where the full-run
# trajectory should be (ROADMAP item 1). The harness now redirects smoke
# output to BENCH_smoke_*.json in the build tree; this script is the
# tripwire that fails the test suite if smoke-sized or truncated data ever
# lands in the tracked files again.
#
# Checks, per file:
#   1. the file exists and meets its full-sweep record floor (a truncated
#      sweep — kill switch, partial overwrite — fails);
#   2. no record carries the smoke marker;
#   3. every line is one complete JSON object of the BENCH_JSON schema;
#   4. all records carry the same git_sha (one file = one bench process;
#      mixed shas mean a partial overwrite).
#
# Usage: cmake -DREPO_ROOT=<repo> -P trajectory_guard.cmake

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "trajectory_guard: pass -DREPO_ROOT=<repo>")
endif()

# Record floors: the current full sweeps write 3 (oracle), 12 (insertion)
# and 30 (dispatch) lines; the floors catch a file cut off mid-run or
# overwritten by a smoke run (1-9 lines).
set(floor_oracle 3)
set(floor_insertion 9)
set(floor_dispatch 30)

foreach(stem oracle insertion dispatch)
  set(path "${REPO_ROOT}/BENCH_${stem}.json")
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "trajectory_guard: ${path} is missing — regenerate "
      "it by running the trajectory benches (no --smoke) from the repo root")
  endif()
  file(STRINGS "${path}" lines)
  list(LENGTH lines count)
  if(count LESS ${floor_${stem}})
    message(FATAL_ERROR "trajectory_guard: ${path} has ${count} records, "
      "expected at least ${floor_${stem}} — the full sweep is truncated "
      "(or a smoke run overwrote it)")
  endif()
  set(sha "")
  foreach(line IN LISTS lines)
    if(line MATCHES "\"smoke\":\"1\"")
      message(FATAL_ERROR "trajectory_guard: ${path} contains smoke-sized "
        "records — a smoke run overwrote the full-run trajectory; "
        "regenerate it without --smoke from the repo root")
    endif()
    if(NOT line MATCHES "^\\{\"name\":\".+\"timestamp\":\"[^\"]+\"\\}$")
      message(FATAL_ERROR "trajectory_guard: malformed/truncated record in "
        "${path}: ${line}")
    endif()
    # Any record carrying latency percentiles must carry the full
    # p50/p95/p99 triple — the digest-backed accumulator emits all three,
    # so a missing p99 means the file predates the digest percentiles.
    if(line MATCHES "\"p50_ms\":" AND NOT (line MATCHES "\"p95_ms\":" AND
        line MATCHES "\"p99_ms\":"))
      message(FATAL_ERROR "trajectory_guard: record in ${path} has p50_ms "
        "but not the full p50/p95/p99 triple — regenerate with the current "
        "bench binaries: ${line}")
    endif()
    string(REGEX MATCH "\"git_sha\":\"([^\"]+)\"" m "${line}")
    if(sha STREQUAL "")
      set(sha "${CMAKE_MATCH_1}")
    elseif(NOT sha STREQUAL "${CMAKE_MATCH_1}")
      message(FATAL_ERROR "trajectory_guard: ${path} mixes git_sha ${sha} "
        "and ${CMAKE_MATCH_1} — partial overwrite; regenerate the file in "
        "one run")
    endif()
  endforeach()
  message(STATUS "trajectory_guard: ${path} ok (${count} records, "
    "sha ${sha})")
endforeach()
