# Drives the mcnk_serve restart cycle end to end (ARCHITECTURE S16):
# runs the daemon twice in --stdio mode over one persistent store file.
# The first (cold) run starts from an empty store and must append its
# compiles, lint findings and sliced results; the second (warm) run
# simulates a restart and must load them back — nonzero warmed-entry
# counts, response lines byte-identical to the cold run's, and a final
# stats request showing that the front-end memo missed nothing.
#
# Usage:
#   cmake -DSERVE=<mcnk_serve> -DWORKDIR=<scratch dir> -P RunServeSmoke.cmake

foreach(var SERVE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "RunServeSmoke.cmake: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(store ${WORKDIR}/fdds.store)
set(requests ${WORKDIR}/requests.jsonl)
set(warm_requests ${WORKDIR}/warm_requests.jsonl)

# The program is large enough to clear the compile cache's minimum-size
# gate, so the compile lands in the store. Delivery from sw=1 is exactly 1.
set(prog "if sw=1 then pt:=2 ; sw:=2 ; hops:=1 else if sw=2 then ((pt:=3 ; sw:=3 ; hops:=2) +[1/2] drop) else drop")
# One string, not a list: the program text contains semicolons.
string(CONCAT shared_requests
  "{\"verb\":\"compile\",\"program\":\"${prog}\",\"solver\":\"exact\"}\n"
  "{\"verb\":\"query\",\"program\":\"${prog}\",\"query\":\"delivery\",\"inputs\":[{\"sw\":1},{\"sw\":2}]}\n"
  "{\"verb\":\"lint\",\"program\":\"${prog}\",\"file\":\"smoke.pnk\"}\n"
  "{\"verb\":\"query\",\"program\":\"${prog}\",\"query\":\"delivery\",\"slice\":true,\"inputs\":[{\"sw\":1},{\"sw\":2}]}\n")
file(WRITE ${requests} "${shared_requests}" "{\"verb\":\"shutdown\"}\n")
# The warm run ends with a stats request before its shutdown.
file(WRITE ${warm_requests} "${shared_requests}"
  "{\"verb\":\"stats\"}\n"
  "{\"verb\":\"shutdown\"}\n")

function(run_daemon input out_var err_var)
  execute_process(
    COMMAND ${SERVE} --stdio --store ${store}
    INPUT_FILE ${input}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "mcnk_serve exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

run_daemon(${requests} cold_out cold_err)
run_daemon(${warm_requests} warm_all warm_err)
# Split the warm run's stats response from the replayed responses.
string(REGEX MATCH "[^\n]*\"memo\":[^\n]*\n" warm_stats "${warm_all}")
if(warm_stats STREQUAL "")
  message(FATAL_ERROR "warm run printed no stats response\nstdout:\n${warm_all}")
endif()
string(REPLACE "${warm_stats}" "" warm_out "${warm_all}")

# The cold run opened an empty store...
if(NOT cold_err MATCHES "\\(0 entries warmed\\)")
  message(FATAL_ERROR
    "cold run did not start from an empty store\nstderr:\n${cold_err}")
endif()
# ...the warm run loaded the cold run's compiles and memo entries back
# from disk...
if(NOT warm_err MATCHES "\\([1-9][0-9]* entr(y|ies) warmed\\) \\(2 memo entries\\)")
  message(FATAL_ERROR
    "warm run warmed no entries from the store\nstderr:\n${warm_err}")
endif()
# ...both runs answered every request, with the exact delivery answers...
foreach(out IN ITEMS "${cold_out}" "${warm_out}")
  if(NOT out MATCHES "\"results\":\\[\"1\",\"1/2\"\\]")
    message(FATAL_ERROR
      "delivery answers wrong or missing\nstdout:\n${out}")
  endif()
  if(NOT out MATCHES "\"results\":\\[\"1\",\"1/2\"\\],\"average\":\"3/4\",\"slice\":")
    message(FATAL_ERROR
      "sliced delivery answers wrong or missing\nstdout:\n${out}")
  endif()
  if(NOT out MATCHES "\"findings\":\\[{\"file\":\"smoke.pnk\"")
    message(FATAL_ERROR "lint findings missing\nstdout:\n${out}")
  endif()
  if(out MATCHES "\"ok\":false")
    message(FATAL_ERROR "a request failed\nstdout:\n${out}")
  endif()
endforeach()
# ...the restarted daemon ran no lint and no slice...
if(NOT warm_stats MATCHES "\"memo\":{\"hits\":2,\"misses\":0,")
  message(FATAL_ERROR
    "warm run recomputed front-end results\nstats:\n${warm_stats}")
endif()
# ...and the restart changed nothing observable.
if(NOT cold_out STREQUAL warm_out)
  message(FATAL_ERROR
    "warm responses differ from cold responses\n"
    "cold:\n${cold_out}\nwarm:\n${warm_out}")
endif()
