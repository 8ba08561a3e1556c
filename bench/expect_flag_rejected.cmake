# Runs every binary in BINARIES (a "|"-separated list) with flags no bench
# driver accepts, and fails unless each run exits with status 2. The flags
# are deleted knobs, so a stale invocation fails loudly instead of quietly
# measuring the defaults.
#   cmake -DBINARIES=a|b -P expect_flag_rejected.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
  foreach(flag --heuristic=table --engine=sipp)
    execute_process(COMMAND "${binary}" ${flag}
                    RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
    if(NOT status EQUAL 2)
      message(FATAL_ERROR "${binary} ${flag} exited '${status}', expected 2")
    endif()
  endforeach()
endforeach()
