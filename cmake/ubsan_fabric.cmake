# Script mode (cmake -P): configure, build, and run the fabric tests
# under UndefinedBehaviorSanitizer in a dedicated build tree (the same
# tree the `ubsan` preset uses). The event-driven mesh stepping leans
# on tight integer/bit manipulation (route-byte arithmetic, bitmap
# word walks, ring-buffer indices); this job fails the normal test run
# on any UB those paths hit, not just when someone runs the preset.
#
# Expects -DSOURCE_DIR=... and -DBINARY_DIR=... on the command line.

if(NOT SOURCE_DIR OR NOT BINARY_DIR)
    message(FATAL_ERROR "ubsan_fabric.cmake needs -DSOURCE_DIR and -DBINARY_DIR")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
            -DJMSIM_UBSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan configure failed")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} --parallel
            --target fabric_sched_test network_test ckpt_test netops_test
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan build failed")
endif()

# The full fabric-scheduler suite (crafted meshes + scheduler on/off
# A/B) and the raw mesh unit tests cover injection, routing, fused
# commit, back-pressure retry, and delivery under the sanitizer.
execute_process(
    COMMAND ${BINARY_DIR}/tests/fabric_sched_test
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan fabric_sched run failed")
endif()

execute_process(
    COMMAND ${BINARY_DIR}/tests/network_test
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan network run failed")
endif()

# Checkpoint round-trips push raw bytes through the snapshot
# reader/writer (unaligned loads, varint-free fixed-width packing,
# bounds-checked cursors); run the full ckpt suite under the
# sanitizer too.
execute_process(
    COMMAND ${BINARY_DIR}/tests/ckpt_test
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan ckpt run failed")
endif()

# The netops engine adds wraparound fetch-and-add arithmetic, e-cube
# hop math on packed router bytes, and its own snapshot section; the
# full suite (including the mid-flight checkpoint round-trips) runs
# under the sanitizer.
execute_process(
    COMMAND ${BINARY_DIR}/tests/netops_test
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ubsan netops run failed")
endif()
