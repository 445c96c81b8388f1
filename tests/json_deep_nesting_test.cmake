# A file of 200,000 `[` characters fed to every tool that reads JSON
# artifacts. Each must stop at the shared reader's nesting cap with a
# typed "nesting" error on stderr; none may die by a signal (a
# recursive reader without a depth limit overflows its stack here).
# Expects CLI, CHECK, BENCH_CHECK and WORK to be defined.
file(MAKE_DIRECTORY ${WORK})
string(REPEAT "[" 200000 deep)
file(WRITE ${WORK}/deep.json "${deep}")

function(expect_typed_nesting_error label)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    # A signal death comes back as a description, not an exit code.
    if(NOT rc MATCHES "^[0-9]+$")
        message(FATAL_ERROR "${label} died by a signal: ${rc}")
    endif()
    if(NOT err MATCHES "nesting")
        message(FATAL_ERROR "${label} gave no typed nesting error "
                            "(rc ${rc}): ${err}")
    endif()
endfunction()

expect_typed_nesting_error("gpupm_bench_check validate"
    ${BENCH_CHECK} validate ${WORK}/deep.json)
expect_typed_nesting_error("gpupm_trace_check trace"
    ${CHECK} trace ${WORK}/deep.json)
expect_typed_nesting_error("gpupm alerts --drift-golden"
    ${CLI} alerts titanx --drift-golden=${WORK}/deep.json --ticks=5
    --period-ms=50)
