# Targets of the end-to-end benchmark harness, read into the
# repository's own build by hook.cmake (see there); run.py drives
# both. Paths are relative to this file, not to the root.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
add_library(perfbench_core STATIC
    ${PERFBENCH_DIR}/src/calibrate.cc
    ${PERFBENCH_DIR}/src/harness.cc
    ${PERFBENCH_DIR}/src/tracer.cc
    ${PERFBENCH_DIR}/src/sim_trace.cc
    ${PERFBENCH_DIR}/src/design_grid.cc
    ${PERFBENCH_DIR}/src/serve_mix.cc
    ${PERFBENCH_DIR}/src/replay_corpus.cc
)
target_include_directories(perfbench_core PUBLIC
    ${PERFBENCH_DIR}/src)
target_link_libraries(perfbench_core PUBLIC gables_cli_driver)

add_executable(perfbench ${PERFBENCH_DIR}/src/main.cc)
target_link_libraries(perfbench PRIVATE perfbench_core)

# The harness's own tests (built by `run.py --self-test`).
add_executable(perfbench_test EXCLUDE_FROM_ALL ${PERFBENCH_DIR}/tests/perfbench_test.cc)
target_link_libraries(perfbench_test PRIVATE perfbench_core
                      GTest::gtest_main)
target_compile_definitions(perfbench_test PRIVATE
    PERFBENCH_REPO_ROOT="${CMAKE_SOURCE_DIR}")
