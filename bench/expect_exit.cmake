# Runs a command and fails unless it exits with EXPECT_EXIT and its stdout
# plus stderr match the regular expression EXPECT_OUTPUT:
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake \
#         <program> [args...]
#
# The arguments travel as a CMake list, so none may contain a ';'.
# ctest alone checks one or the other: PASS_REGULAR_EXPRESSION ignores the
# exit status, and WILL_FAIL accepts any non-zero one.
cmake_minimum_required(VERSION 3.22)

set(cmd "")
set(after_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(after_script)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "expect_exit\\.cmake$")
    set(after_script TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_OUTPUT)
  message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=<code> "
                      "-DEXPECT_OUTPUT=<regex> -P expect_exit.cmake "
                      "<program> [args...]")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT_EXIT}:\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n"
                      "${out}${err}")
endif()
