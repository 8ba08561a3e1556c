# Runs every binary in BINARIES (a "|"-separated list) with a flag no bench
# driver accepts, and fails unless each one exits with status 2.
#   cmake -DBINARIES=a|b -P expect_flag_rejected.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
  execute_process(COMMAND "${binary}" --heuristic=table
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
            "${binary} --heuristic=table exited '${status}', expected 2")
  endif()
endforeach()
