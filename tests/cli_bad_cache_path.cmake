# amos_cli --cache on a path that cannot be a store directory exits 4
# (the CLI's "output path not writable" code) with a message naming
# the path: a regular file (say, an old tuning.json document), and a
# directory that cannot be created under it.
#
#   cmake -DCLI=<amos_cli> -DWORK=<scratch dir> -P cli_bad_cache_path.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/tuning.json" "{}\n")
foreach(path "${WORK}/tuning.json" "${WORK}/tuning.json/sub")
    execute_process(
        COMMAND "${CLI}" --op gemm --m 16 --n 16 --k 16 --hw v100
                --generations 1 --cache "${path}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 4)
        message(FATAL_ERROR "--cache ${path}: exit ${rc}, want 4\n${err}")
    endif()
    string(FIND "${err}" "'${path}'" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "--cache ${path}: message does not name "
                            "the path:\n${err}")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
