# Drives the live-telemetry daemon end to end without external tools:
# gpupm_scrape's monitor-selftest mode fork/execs
# `gpupm monitor <device>` on an ephemeral port, waits for the port
# file, scrapes /metrics, /healthz, /scoreboard and /tracez (asserting
# build info, accuracy series, per-endpoint latency histograms and
# plausible sampled wattage), exercises the 404/405 error paths, then
# SIGTERMs the daemon and requires a clean exit 0. Expects CLI, SCRAPE
# and WORK to be defined.
file(MAKE_DIRECTORY ${WORK})

execute_process(COMMAND ${SCRAPE} monitor-selftest ${CLI} titanx
                        --work=${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "monitor selftest failed: ${rc}: ${err}")
endif()
if(NOT err MATCHES "clean SIGTERM exit")
    message(FATAL_ERROR "selftest did not confirm clean exit: ${err}")
endif()

# The selftest leaves the daemon's artifacts behind: the port file and
# the NDJSON event log with one object per completed sample.
if(NOT EXISTS ${WORK}/monitor.port)
    message(FATAL_ERROR "port file missing after selftest")
endif()
if(NOT EXISTS ${WORK}/monitor.ndjson)
    message(FATAL_ERROR "event log missing after selftest")
endif()
file(STRINGS ${WORK}/monitor.ndjson events LIMIT_COUNT 4)
list(LENGTH events n_events)
if(n_events LESS 1)
    message(FATAL_ERROR "event log is empty")
endif()
# Sample lines carry the per-tick audit; alert-transition lines from
# the rule engine interleave with them.
foreach(line IN LISTS events)
    if(NOT line MATCHES "^\\{\"tick\":.*\"abs_err_pct\":.*\\}$" AND
       NOT line MATCHES "^\\{\"event\":\"alert\".*\"state\":.*\\}$")
        message(FATAL_ERROR "malformed NDJSON event: ${line}")
    endif()
endforeach()

# A too-short duration still shuts down cleanly on its own (no signal
# involved), and `gpupm monitor` rejects bad arguments by name.
execute_process(COMMAND ${CLI} monitor titanx --port=0
                        --period-ms=50 --duration=500ms
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "duration-bounded monitor failed: ${rc}: ${err}")
endif()
if(NOT err MATCHES "monitor: listening on 127.0.0.1:")
    message(FATAL_ERROR "monitor never announced its port: ${err}")
endif()
if(NOT err MATCHES "flight recorder tail")
    message(FATAL_ERROR "no post-mortem flight-recorder dump: ${err}")
endif()

execute_process(COMMAND ${CLI} monitor notadevice
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "unknown device 'notadevice'")
    message(FATAL_ERROR "bad device not rejected by name: ${rc}: ${err}")
endif()
execute_process(COMMAND ${CLI} monitor titanx --duration=banana
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "--duration")
    message(FATAL_ERROR "bad duration not rejected by name: ${rc}: ${err}")
endif()

# Session flags are validated before the training campaign: a bad
# --inject-drift exits 2 by name without a "training" line.
execute_process(COMMAND ${CLI} monitor titanx --inject-drift=banana
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--inject-drift")
    message(FATAL_ERROR "bad inject spec not rejected: ${rc}: ${err}")
endif()
if(err MATCHES "training")
    message(FATAL_ERROR "monitor trained before rejecting a bad "
                        "--inject-drift: ${err}")
endif()
