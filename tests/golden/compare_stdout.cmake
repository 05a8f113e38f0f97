# Run COMMAND (arguments separated by '|') in the working directory and
# require exit status 0 and a standard output equal to the file EXPECTED.
#   cmake -DCOMMAND="tool|arg|..." -DEXPECTED=<file> -P compare_stdout.cmake
string(REPLACE "|" ";" argv "${COMMAND}")
execute_process(COMMAND ${argv} OUTPUT_VARIABLE got ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}\n${err}")
endif()
file(READ "${EXPECTED}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "standard output differs from ${EXPECTED}\n"
                      "--- expected\n${want}--- got\n${got}")
endif()
