# Project-include hook that adds the benchmark harness to the
# repository's own build without editing it:
#
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_gables_INCLUDE=perfbench/hook.cmake
#
# CMake reads this file right after project(gables); the deferred
# call reads perfbench.cmake once the root CMakeLists.txt has defined
# every library, flag and option, so the harness links the libraries
# exactly as users build them.
cmake_minimum_required(VERSION 3.19)
# Deferred arguments expand when the call runs, so the path is kept
# in a variable set now.
set(PERFBENCH_CMAKE "${CMAKE_CURRENT_LIST_DIR}/perfbench.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_CMAKE}")
