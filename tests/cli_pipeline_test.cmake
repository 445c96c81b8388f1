# Drives the gpupm CLI through campaign -> fit -> info -> predict ->
# sweep, checking exit codes and that the file formats round-trip.
file(MAKE_DIRECTORY ${WORK})

execute_process(COMMAND ${CLI} campaign titanx ${WORK}/tx.campaign
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} fit ${WORK}/tx.campaign ${WORK}/tx.model
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fit failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} info ${WORK}/tx.model
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "info failed: ${rc}")
endif()
if(NOT out MATCHES "GTX Titan X")
    message(FATAL_ERROR "info output missing device name: ${out}")
endif()

execute_process(COMMAND ${CLI} predict ${WORK}/tx.model BLCKSC 595 810
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "predict failed: ${rc}")
endif()
if(NOT out MATCHES "BLCKSC @ \\(595, 810\\)")
    message(FATAL_ERROR "predict output unexpected: ${out}")
endif()

# Off-grid prediction goes through voltage interpolation.
execute_process(COMMAND ${CLI} predict ${WORK}/tx.model CUTCP 700 3505
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "off-grid predict failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} sweep ${WORK}/tx.model GEMM
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep failed: ${rc}")
endif()

# Unknown application must fail cleanly.
execute_process(COMMAND ${CLI} predict ${WORK}/tx.model NOPE
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "unknown app should fail")
endif()

# Freshly produced artifacts pass validation, human and JSON form.
execute_process(COMMAND ${CLI} validate ${WORK}/tx.campaign ${WORK}/tx.model
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "validate failed on good artifacts: ${rc}: ${out}")
endif()
if(NOT out MATCHES "OK")
    message(FATAL_ERROR "validate output missing OK: ${out}")
endif()

execute_process(COMMAND ${CLI} validate --json ${WORK}/tx.model
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"ok\":true")
    message(FATAL_ERROR "validate --json unexpected: ${rc}: ${out}")
endif()

# A corrupted model is rejected with a non-zero exit by validate and
# by every consumer, instead of being parsed into silently-wrong
# coefficients.
file(READ ${WORK}/tx.model model_text)
if(model_text MATCHES "crc32 deadbeef")
    string(REGEX REPLACE "crc32 [0-9a-f]+" "crc32 feedface"
           corrupt "${model_text}")
else()
    string(REGEX REPLACE "crc32 [0-9a-f]+" "crc32 deadbeef"
           corrupt "${model_text}")
endif()
file(WRITE ${WORK}/corrupt.model "${corrupt}")
execute_process(COMMAND ${CLI} validate ${WORK}/corrupt.model
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "validate accepted a corrupt model: ${out}")
endif()
execute_process(COMMAND ${CLI} info ${WORK}/corrupt.model
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "info accepted a corrupt model")
endif()
if(NOT err MATCHES "checksum-mismatch")
    message(FATAL_ERROR "expected checksum-mismatch, got: ${err}")
endif()

# Legacy (pre-envelope) files still load by default but are rejected
# under --strict unless --allow-legacy is also given.
file(READ ${WORK}/tx.model enveloped)
string(FIND "${enveloped}" "\n" eol)
math(EXPR start "${eol} + 1")
string(SUBSTRING "${enveloped}" ${start} -1 legacy)
file(WRITE ${WORK}/legacy.model "${legacy}")
execute_process(COMMAND ${CLI} info ${WORK}/legacy.model
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "legacy model should load by default: ${rc}")
endif()
execute_process(COMMAND ${CLI} info --strict ${WORK}/legacy.model
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "--strict accepted a legacy model")
endif()
if(NOT err MATCHES "version-mismatch")
    message(FATAL_ERROR "expected version-mismatch, got: ${err}")
endif()
execute_process(COMMAND ${CLI} info --strict --allow-legacy
                        ${WORK}/legacy.model
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--strict --allow-legacy should load: ${rc}")
endif()

# CUDA export emits all 82 kernels.
execute_process(COMMAND ${CLI} export-cuda ${WORK}/suite.cu
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "export-cuda failed: ${rc}")
endif()
file(READ ${WORK}/suite.cu cu)
string(REGEX MATCHALL "__global__" kernels "${cu}")
list(LENGTH kernels nk)
if(NOT nk EQUAL 82)
    message(FATAL_ERROR "expected 82 kernels, got ${nk}")
endif()

# A model whose version token holds a 0x01 byte: the --json report
# quotes it back, and must escape it as \u0001 so the output stays
# valid JSON.
string(ASCII 1 ctl)
file(WRITE ${WORK}/ctl.model "gpupm-model\n1${ctl} 2\n")
execute_process(COMMAND ${CLI} validate --json ${WORK}/ctl.model
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
string(FIND "${out}" "\\u0001" escaped)
string(FIND "${out}" "${ctl}" raw)
if(escaped EQUAL -1 OR NOT raw EQUAL -1)
    message(FATAL_ERROR "validate --json did not escape a control "
                        "byte (rc ${rc}): ${out}")
endif()
