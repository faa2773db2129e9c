# Drives one `mcnk_cli --slice` smoke case: runs CLI with ARGS twice,
# with and without --slice, and checks that both runs exit with the same
# code and print the same stdout, which must contain EXPECT. `run` and
# `equiv` slice for the all-fields observation, a verified no-op on the
# diagram, so --slice must not change their answers.
#
# Usage:
#   cmake -DCLI=<mcnk_cli> "-DARGS=<command;arg;...>" -DEXPECT=<substring>
#         -P RunSliceSmoke.cmake

foreach(var CLI ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "RunSliceSmoke.cmake: ${var} is required")
  endif()
endforeach()

list(JOIN ARGS " " shown)
execute_process(
  COMMAND ${CLI} ${ARGS}
  OUTPUT_VARIABLE plain_out
  ERROR_VARIABLE plain_err
  RESULT_VARIABLE plain_code)
execute_process(
  COMMAND ${CLI} --slice ${ARGS}
  OUTPUT_VARIABLE sliced_out
  ERROR_VARIABLE sliced_err
  RESULT_VARIABLE sliced_code)

if(NOT plain_code EQUAL sliced_code OR NOT plain_out STREQUAL sliced_out)
  message(FATAL_ERROR
    "--slice ${shown} answers differently from ${shown}\n"
    "without --slice (exit ${plain_code}):\n${plain_out}${plain_err}\n"
    "with --slice (exit ${sliced_code}):\n${sliced_out}${sliced_err}")
endif()

string(FIND "${sliced_out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "--slice ${shown}: stdout lacks '${EXPECT}'\nstdout:\n${sliced_out}")
endif()
