# Hooked into the repository's top-level project() through
# CMAKE_PROJECT_INCLUDE (see run.py). Reading the benchmark's build
# file once the top-level CMakeLists.txt has been read gives the
# benchmark the same compile options and definitions (threaded
# dispatch, SIMD holds) as every other build of the libraries, and
# leaves the repository's own build files untouched.
# (EVAL expands the path now; a deferred call's arguments are
# otherwise expanded when it runs, in the top-level directory.)
include_guard(GLOBAL)
get_filename_component(_perfbench_dir "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
cmake_language(EVAL CODE
    "cmake_language(DEFER CALL include [[${_perfbench_dir}/CMakeLists.txt]])")
