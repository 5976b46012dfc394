# ctest script: run `run_all <FIGURE>` with TFETSRAM_OUT_DIR=<OUT_DIR>
# (emptied first) and fail unless it exits 0 and writes <FIGURE>.csv there.
#   cmake -DRUN_ALL=<exe> -DFIGURE=<name> -DOUT_DIR=<dir> -P <this file>
file(REMOVE_RECURSE "${OUT_DIR}")
set(ENV{TFETSRAM_OUT_DIR} "${OUT_DIR}")
set(ENV{TFETSRAM_CACHE} off)
execute_process(COMMAND "${RUN_ALL}" "${FIGURE}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_all ${FIGURE} exited with '${rc}'")
endif()
if(NOT EXISTS "${OUT_DIR}/${FIGURE}.csv")
  message(FATAL_ERROR "run_all ${FIGURE} wrote no ${OUT_DIR}/${FIGURE}.csv")
endif()
