# Drives crtool end to end. crtool_exits(<code> <args...>) runs one command
# line and fails the test unless crtool exits with <code>: 0 success, 1
# runtime error (typed, no crash), 2 usage error. Output stays in the log for
# expected successes and is silenced for expected failures.
function(crtool_exits code)
  if(code EQUAL 0)
    execute_process(COMMAND ${CRTOOL} ${ARGN} RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND ${CRTOOL} ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
  endif()
  if(NOT rc EQUAL code)
    string(REPLACE ";" " " argv "${ARGN}")
    message(FATAL_ERROR "crtool ${argv} should exit ${code}, got ${rc}")
  endif()
endfunction()

function(expect_written path)
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "crtool did not write ${path}")
  endif()
endfunction()

set(dir ${CMAKE_CURRENT_BINARY_DIR})
set(graph ${dir}/smoke.graph)
crtool_exits(0 gen geometric ${graph} 64 2 4 3)
crtool_exits(0 info ${graph})
crtool_exits(0 route ${graph} 0 63)
crtool_exits(0 eval ${graph} 300 0.5)
set(trace_json ${dir}/smoke_trace.json)
crtool_exits(0 trace ${graph} 0 63 0.5 ${trace_json})
expect_written(${trace_json})

# Audit campaign: a clean sweep exits 0 and writes the JSON report; an
# injected defect must turn into exit 1 (violations found, not a crash);
# malformed audit options exit 2.
set(audit_json ${dir}/smoke_audit.json)
crtool_exits(0 audit --families grid,spider --n 32 --seeds 1 --workers 1
             --backends dense --out ${audit_json})
expect_written(${audit_json})
crtool_exits(1 audit --families grid --n 32 --seeds 1 --workers 1
             --backends dense --inject flip-codec-bit)
crtool_exits(2 audit --families not-a-family)
crtool_exits(2 audit --workers 0)

# Snapshot pipeline: build --out -> load-info -> serve (with the fingerprint
# audit and the corruption battery) must succeed end to end.
set(snap ${dir}/smoke.snap)
crtool_exits(0 build ${graph} 0.5 --out ${snap})
expect_written(${snap})
crtool_exits(0 load-info ${snap})
set(serving_json ${dir}/smoke_serving.json)
crtool_exits(0 serve ${snap} --pairs 500 --audit --out ${serving_json})
expect_written(${serving_json})
# Rewriting a snapshot under a live epoch is checked in tests/test_server.cpp
# (ServerEpoch.LoadedEpochOutlivesItsFile): execute_process runs commands to
# completion or as a one-way pipeline, so a cmake script cannot place a file
# rewrite between `crtool server`'s epoch load and its next reload.

# A reload must serve the first snapshot's request stream: a snapshot that
# lacks one of its schemes, or has another n, is never published, and the
# server exits 1. The subset reload lands mid-stream; the 10x10 one is still
# in flight when the stream ends.
set(full_snap ${dir}/smoke_full12.snap)
set(light_snap ${dir}/smoke_light12.snap)
set(other_snap ${dir}/smoke_other10.snap)
crtool_exits(0 gen grid ${dir}/smoke_grid12.graph 12 12)
crtool_exits(0 gen grid ${dir}/smoke_grid10.graph 10 10)
crtool_exits(0 build ${dir}/smoke_grid12.graph 0.5 --out ${full_snap})
crtool_exits(0 build ${dir}/smoke_grid12.graph 0.5 --schemes light
             --out ${light_snap})
crtool_exits(0 build ${dir}/smoke_grid10.graph 0.5 --out ${other_snap})
crtool_exits(1 server ${full_snap} ${light_snap} --requests 4000
             --reload-every 500 --queue-depth 64)
crtool_exits(1 server ${full_snap} ${other_snap} --requests 4000
             --reload-every 1000)

# A corrupted snapshot must be rejected with exit 1 (typed error, no crash).
# The exhaustive truncation/bit-flip battery runs in test_snapshot and inside
# `serve --audit` above; here the CLI path is exercised with a file that has
# the right magic but garbage everywhere else. A missing snapshot is a
# runtime error too.
set(corrupt ${dir}/smoke_corrupt.snap)
file(WRITE ${corrupt} "CRSNAP01 this is not a valid snapshot payload at all")
crtool_exits(1 serve ${corrupt} --pairs 10)
crtool_exits(1 load-info ${corrupt})
crtool_exits(1 serve ${dir}/absent.snap)
# Non-finite and non-positive eps values must exit 2 at the CLI boundary.
foreach(bad_eps nan inf -1 0)
  crtool_exits(2 eval ${graph} 10 ${bad_eps})
  crtool_exits(2 build ${graph} ${bad_eps} --out ${snap}.bad)
endforeach()

# Internet-like families: gen -> build -> mine -> server replay, end to end.
set(pl_graph ${dir}/smoke_powerlaw.graph)
crtool_exits(0 gen powerlaw ${pl_graph} 64 2 7)
crtool_exits(0 gen hyperbolic ${dir}/smoke_hyp.graph 64 0.75 6.0 7)
crtool_exits(0 gen astopo ${dir}/smoke_as.graph 64 8 7)
set(mined ${dir}/smoke_mined.txt)
crtool_exits(0 mine ${pl_graph} ${mined} --samples 100 --keep 16)
expect_written(${mined})
set(pl_snap ${dir}/smoke_powerlaw.snap)
crtool_exits(0 build ${pl_graph} 0.5 --out ${pl_snap})
foreach(shape uniform zipf incast)
  crtool_exits(0 server ${pl_snap} --requests 200 --traffic ${shape})
endforeach()
crtool_exits(0 server ${pl_snap} --source ${mined})
# Garbage values for the numeric options must exit 2 at the CLI boundary.
foreach(bad nan inf -1 0)
  crtool_exits(2 gen hyperbolic ${dir}/bad.graph 64 ${bad} 6.0 7)
  crtool_exits(2 server ${pl_snap} --requests 10 --traffic zipf
               --zipf-skew ${bad})
endforeach()
crtool_exits(2 gen powerlaw ${dir}/bad.graph 64 0 7)      # 0 edges/node
crtool_exits(2 gen astopo ${dir}/bad.graph 64 999 7)      # core > n
crtool_exits(2 server ${pl_snap} --traffic mystery)
crtool_exits(2 server ${pl_snap} --traffic worst)         # no replay file
crtool_exits(2 mine ${pl_graph} ${mined}.bad --samples 0)

# Bad invocations must exit 2 (usage), not crash or succeed.
crtool_exits(2 gen mystery ${graph} 8)
crtool_exits(2 route ${graph} zero 63)
crtool_exits(2 frobnicate)
# Unknown flags and surplus arguments are usage errors, not silently ignored
# typos. Each command line is otherwise valid, so only the last token can
# turn it into exit 2 — except `save`, which was folded into `build --out`
# and is now an unknown command. `build --stream` is gone too: `--out`
# always streams.
set(bogus_cases
    "build|${graph}|0.5|--bogus-flag"
    "build|${graph}|0.5|--out|${snap}.stream|--stream"
    "serve|${snap}|--pairs|10|--bogus-flag"
    "server|${snap}|--requests|10|--bogus-flag"
    "mine|${graph}|${mined}.bogus|--samples|10|--keep|2|--bogus-flag"
    "stats|${snap}|--pairs|10|--bogus-flag"
    "info|${graph}|surplus"
    "route|${graph}|0|63|0.5|surplus"
    "eval|${graph}|10|0.5|surplus"
    "load-info|${snap}|surplus"
    "gen|grid|${graph}.surplus|4|4|surplus"
    "save|${graph}|${snap}|0.5")
foreach(case IN LISTS bogus_cases)
  string(REPLACE "|" ";" argv "${case}")
  crtool_exits(2 ${argv})
endforeach()
