# Freshness gate for one committed sweep baseline. Runs SWEEP with
# --json into OUT and fails unless OUT is byte-identical to EXPECTED.
#
#   cmake -DSWEEP=<binary> -DOUT=<file> -DEXPECTED=<BENCH_*.json>
#         -P sweep_fresh.cmake
execute_process(COMMAND "${SWEEP}" --json
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${SWEEP} --json failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "${OUT} differs from the committed ${EXPECTED}; if the change "
        "is intended, regenerate the baselines with "
        "scripts/refresh_baselines.sh")
endif()
