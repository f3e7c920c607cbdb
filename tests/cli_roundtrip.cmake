# End-to-end CLI test: gen -> lock -> unlock -> analyze -> attack.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
  set(run_output "${out}" PARENT_SCOPE)
endfunction()

# Re-validates the certificate the last run() published at `path`: as a
# refutation when the attack reached miter-UNSAT, as an open certificate
# when it stopped first.
function(check_published_certificate path)
  if(run_output MATCHES "certificate: valid")
    run(${RIL_BIN} check-proof ${path})
  elseif(run_output MATCHES "certificate: open")
    run(${RIL_BIN} check-proof --open ${path})
  else()
    message(FATAL_ERROR "no checked certificate published:\n${run_output}")
  endif()
endfunction()

# Expects a nonzero exit and an error message on stderr (the CLI must fail
# cleanly on bad input instead of crashing or silently succeeding). An
# optional EXPECT_RC keyword pins the exact exit code.
function(expect_fail)
  set(want_rc "")
  set(cmd ${ARGV})
  list(FIND cmd EXPECT_RC idx)
  if(NOT idx EQUAL -1)
    math(EXPR val_idx "${idx} + 1")
    list(GET cmd ${val_idx} want_rc)
    list(REMOVE_AT cmd ${val_idx})
    list(REMOVE_AT cmd ${idx})
  endif()
  execute_process(COMMAND ${cmd} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "command unexpectedly succeeded: ${cmd}\n${out}")
  endif()
  if(NOT "${want_rc}" STREQUAL "" AND NOT rc EQUAL "${want_rc}")
    message(FATAL_ERROR
            "wrong exit code (${rc}, wanted ${want_rc}): ${cmd}\n${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "command failed silently (${rc}): ${cmd}")
  endif()
  message(STATUS "rejected as expected (${rc}): ${err}")
endfunction()

run(${RIL_BIN} gen c7552 host.bench --scale 0.05)
run(${RIL_BIN} lock ril host.bench locked.bench key.txt
    --blocks 1 --size 4 --output-net --seed 3)
run(${RIL_BIN} unlock locked.bench key.txt activated.bench)
run(${RIL_BIN} analyze locked.bench key.txt)
run(${RIL_BIN} attack sat locked.bench activated.bench --timeout 30)
# AppSAT runs on the SAT attack's DIP loop, so --certify/--proof certify
# it the same way.
run(${RIL_BIN} attack appsat locked.bench activated.bench --timeout 30
    --certify --proof appsat.drat)
check_published_certificate(appsat.drat)
run(${RIL_BIN} attack removal locked.bench activated.bench)

# Error hardening: corrupt and missing inputs exit nonzero with a one-line
# diagnostic instead of crashing.
file(WRITE ${WORK_DIR}/corrupt.bench "this is not ( a bench file }{\n")
file(WRITE ${WORK_DIR}/empty.bench "# comment only, no gates\n")
expect_fail(${RIL_BIN} lock ril corrupt.bench out.bench key2.txt)
expect_fail(${RIL_BIN} attack sat empty.bench activated.bench)
expect_fail(${RIL_BIN} analyze does_not_exist.bench key.txt)
expect_fail(${RIL_BIN} lock nosuchscheme host.bench out.bench key2.txt)
expect_fail(${RIL_BIN} frobnicate host.bench)
expect_fail(${RIL_BIN} attack sat locked.bench activated.bench --timeout)
# The full-circuit DIP encoding and its flag are gone.
expect_fail(${RIL_BIN} attack sat locked.bench activated.bench
            --no-specialize EXPECT_RC 2)

# Certified attack with a streamed on-disk proof, re-validated offline.
run(${RIL_BIN} lock xor host.bench locked_xor.bench key_xor.txt
    --bits 12 --seed 5)
run(${RIL_BIN} unlock locked_xor.bench key_xor.txt activated_xor.bench)
run(${RIL_BIN} attack sat locked_xor.bench activated_xor.bench --timeout 60
    --proof miter.drat)
run(${RIL_BIN} check-proof miter.drat)

# The one-hot routing attack is certified on the same DIP loop too.
run(${RIL_BIN} lock routing host.bench locked_routing.bench key_routing.txt
    --size 8 --seed 3)
run(${RIL_BIN} unlock locked_routing.bench key_routing.txt
    activated_routing.bench)
run(${RIL_BIN} attack onehot locked_routing.bench activated_routing.bench
    --timeout 60 --certify --proof onehot.drat)
check_published_certificate(onehot.drat)

# check-proof diagnostics: each failure class has its own exit code
# (2 usage, 3 missing, 4 empty, 5 malformed, 1 invalid proof).
expect_fail(${RIL_BIN} check-proof EXPECT_RC 2)
expect_fail(${RIL_BIN} check-proof no_such_trace.drat EXPECT_RC 3)
file(WRITE ${WORK_DIR}/empty.drat "")
expect_fail(${RIL_BIN} check-proof empty.drat EXPECT_RC 4)
file(WRITE ${WORK_DIR}/garbage.drat "this is not a proof trace\n")
expect_fail(${RIL_BIN} check-proof garbage.drat EXPECT_RC 5)
# A truncated copy of the real streamed trace must be rejected too: cut
# the published binary trace in half (a torn copy / tampered artifact).
file(SIZE ${WORK_DIR}/miter.drat trace_size)
if(trace_size LESS 16)
  message(FATAL_ERROR "streamed trace suspiciously small: ${trace_size} B")
endif()
math(EXPR cut "${trace_size} / 2")
execute_process(COMMAND head -c ${cut} miter.drat
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_FILE ${WORK_DIR}/truncated.drat
                RESULT_VARIABLE head_rc)
if(NOT head_rc EQUAL 0)
  message(FATAL_ERROR "head -c failed (${head_rc})")
endif()
expect_fail(${RIL_BIN} check-proof truncated.drat EXPECT_RC 5)

# Open certificates: an iteration-capped attack stops before miter-UNSAT
# but still publishes its streamed trace. `check-proof --open` accepts it
# (every step RUP-checks); the default refutation mode must reject it with
# exit 1 -- well-formed, just not closed.
run(${RIL_BIN} attack sat locked_xor.bench activated_xor.bench --timeout 60
    --max-iterations 1 --proof open.drat)
run(${RIL_BIN} check-proof --open open.drat)
expect_fail(${RIL_BIN} check-proof open.drat EXPECT_RC 1)
# Tampering is still caught under --open: truncation breaks the framing.
file(SIZE ${WORK_DIR}/open.drat open_size)
math(EXPR open_cut "${open_size} / 2")
execute_process(COMMAND head -c ${open_cut} open.drat
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_FILE ${WORK_DIR}/open_truncated.drat
                RESULT_VARIABLE open_head_rc)
if(NOT open_head_rc EQUAL 0)
  message(FATAL_ERROR "head -c failed (${open_head_rc})")
endif()
expect_fail(${RIL_BIN} check-proof --open open_truncated.drat EXPECT_RC 5)
