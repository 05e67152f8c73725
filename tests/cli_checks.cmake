# Drives the simulator CLIs end to end: the differential identities the
# run-output plumbing must keep, and the flag values each CLI must
# refuse with exit code 1.
#
#   cmake -DCHECK=<name> -DWORK=<scratch dir> -DSIMULATE=<path>
#         -DLATENCY_STUDY=<path> -DQUARTZ_SERVE=<path> -DQUARTZ_DECODE=<path>
#         -P tests/cli_checks.cmake
#
# CHECK is one of fib_identity, jsonl_decode_identity,
# study_jobs_identity, shards_csv_identity or rejects_bad_flags.
cmake_minimum_required(VERSION 3.16)

foreach(var CHECK WORK SIMULATE LATENCY_STUDY QUARTZ_SERVE QUARTZ_DECODE)
  if(NOT ${var})
    message(FATAL_ERROR "cli_checks.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# run(<stdout file> <command...>): the command must exit 0.
function(run out)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK}
                  OUTPUT_FILE ${WORK}/${out} ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${err}")
  endif()
endfunction()

# same(<a> <b> <what>): the two files under WORK are byte-identical.
function(same a b what)
  file(READ ${WORK}/${a} ca HEX)
  file(READ ${WORK}/${b} cb HEX)
  if(ca STREQUAL "")
    message(FATAL_ERROR "${what}: ${a} is empty")
  endif()
  if(NOT ca STREQUAL cb)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
  message(STATUS "${what}: identical")
endfunction()

# refused(<command...>): the command exits 1 (usage error, no crash).
function(refused)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${rc}': ${ARGN}\n${out}${err}")
  endif()
  string(JOIN " " command ${ARGN})
  message(STATUS "refused: ${command}")
endfunction()

if(CHECK STREQUAL "fib_identity")
  # The compiled FIB is an optimization, never a behavior change.
  set(i 0)
  foreach(args "--pattern=scatter" "--pattern=gather;--localized"
               "--fabric=quartz-edge;--vlb=0.5")
    math(EXPR i "${i} + 1")
    run(on${i}.csv ${SIMULATE} ${args} --tasks=2 --duration-ms=4 --csv --fib=on)
    run(off${i}.csv ${SIMULATE} ${args} --tasks=2 --duration-ms=4 --csv --fib=off)
    string(JOIN " " shown ${args})
    same(on${i}.csv off${i}.csv "simulate ${shown} --fib=on vs off")
  endforeach()
  run(study_on.txt ${LATENCY_STUDY} --tasks=2 --duration-ms=2 --fib=on)
  run(study_off.txt ${LATENCY_STUDY} --tasks=2 --duration-ms=2 --fib=off)
  same(study_on.txt study_off.txt "latency_study --fib=on vs off")

elseif(CHECK STREQUAL "jsonl_decode_identity")
  # --telemetry=jsonl is capture plus an in-process decode, so it must
  # equal quartz_decode of a separate --telemetry=binary run.
  run(binary.txt ${SIMULATE} --tasks=2 --duration-ms=4 --csv
      --metrics-out=binary.csv --telemetry=binary)
  run(jsonl.txt ${SIMULATE} --tasks=2 --duration-ms=4 --csv
      --metrics-out=jsonl.csv --telemetry=jsonl)
  run(decoded.jsonl ${QUARTZ_DECODE} binary.csv.qtz --digest)
  same(decoded.jsonl jsonl.csv.events.jsonl "simulate jsonl vs quartz_decode of binary")
  same(binary.csv jsonl.csv "simulate metrics under binary vs jsonl")

elseif(CHECK STREQUAL "study_jobs_identity")
  # A multi-cell sweep decodes in (time, stream, seq) order, so its
  # JSONL and metrics are the same at any worker count.
  run(jobs1.txt ${LATENCY_STUDY} --tasks=2 --duration-ms=2
      --metrics-out=jobs1.csv --telemetry=jsonl --jobs=1)
  run(jobs2.txt ${LATENCY_STUDY} --tasks=2 --duration-ms=2
      --metrics-out=jobs2.csv --telemetry=jsonl --jobs=2)
  same(jobs1.csv.events.jsonl jobs2.csv.events.jsonl "latency_study JSONL at --jobs=1 vs 2")
  same(jobs1.csv jobs2.csv "latency_study metrics at --jobs=1 vs 2")

elseif(CHECK STREQUAL "shards_csv_identity")
  # The sharded engine's CSV row holds simulated outputs only (events/s
  # goes to stderr), so a rerun prints the same bytes, and the delivery
  # digest is the same at every shard count.
  set(storm --topology=composite:ring-of-rings:4x4@2 --duration-ms=2 --csv)
  run(shards2a.csv ${SIMULATE} ${storm} --shards=2)
  run(shards2b.csv ${SIMULATE} ${storm} --shards=2)
  same(shards2a.csv shards2b.csv "simulate --shards=2 --csv rerun")
  run(shards1.csv ${SIMULATE} ${storm} --shards=1)
  # digest(<csv> <var>): the delivery_digest cell of the CSV's one row.
  function(digest csv var)
    file(STRINGS ${WORK}/${csv} rows)
    list(GET rows 0 header)
    list(GET rows 1 row)
    string(REPLACE "," ";" header "${header}")
    string(REPLACE "," ";" row "${row}")
    list(FIND header delivery_digest column)
    if(column LESS 0)
      message(FATAL_ERROR "${csv} has no delivery_digest column")
    endif()
    list(GET row ${column} value)
    set(${var} ${value} PARENT_SCOPE)
  endfunction()
  digest(shards1.csv digest1)
  digest(shards2a.csv digest2)
  if(NOT digest1 STREQUAL digest2)
    message(FATAL_ERROR "delivery_digest differs: ${digest1} at --shards=1, ${digest2} at 2")
  endif()
  message(STATUS "delivery_digest ${digest1} at --shards=1 and 2")

elseif(CHECK STREQUAL "rejects_bad_flags")
  foreach(cli ${SIMULATE} ${LATENCY_STUDY} ${QUARTZ_SERVE})
    refused(${cli} --telemetry=xml --metrics-out=bad.csv)
    refused(${cli} --telemetry=jsonl)
    refused(${cli} --telemetry=binary)
  endforeach()
  foreach(cli ${SIMULATE} ${LATENCY_STUDY})
    refused(${cli} --topology=composite:bogus)
    refused(${cli} --topology=ring-of-rings:4x4@2)
    refused(${cli} --fib=maybe)
  endforeach()
  # A refused run writes nothing.
  file(GLOB left ${WORK}/bad.csv*)
  if(left)
    message(FATAL_ERROR "a refused run left files behind: ${left}")
  endif()

else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
