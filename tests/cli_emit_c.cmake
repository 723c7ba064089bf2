# amos_cli --emit-c writes the tuned plan's packed kernel, the one the
# JIT tier runs: an int8 GEMM's file binds the storage lanes
# (uint8_t/int8_t/int32_t), has no float in the kernel body, carries
# the mapping in its header, and compiles with the host C compiler.
#
#   cmake -DCLI=<amos_cli> -DWORK=<scratch dir> -P cli_emit_c.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(kernel "${WORK}/k.c")
execute_process(
    COMMAND "${CLI}" --op gemm --m 64 --n 64 --k 64 --hw xeon
            --dtype u8i8 --generations 1 --emit-c "${kernel}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--emit-c: exit ${rc}\n${err}")
endif()
file(READ "${kernel}" text)
foreach(want "const uint8_t *restrict in0" "const int8_t *restrict in1"
        "int32_t *restrict out" " * mapping:  " " * compute:  "
        " * schedule: ")
    string(FIND "${text}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "--emit-c output lacks '${want}':\n${text}")
    endif()
endforeach()
string(FIND "${text}" "void amos_exec_kernel" body)
string(SUBSTRING "${text}" ${body} -1 body_text)
string(FIND "${body_text}" "float" at)
if(NOT at EQUAL -1)
    message(FATAL_ERROR "--emit-c int8 kernel body uses float:\n${text}")
endif()
execute_process(
    COMMAND cc -std=c99 -c "${kernel}" -o "${WORK}/k.o"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emitted kernel does not compile (exit ${rc}):\n${err}")
endif()
file(REMOVE_RECURSE "${WORK}")
