# Fails when a header under src/ has no includer outside tests/ other
# than its own .cpp: code that no library, bench or example uses.
#
#   cmake -DROOT=<repo root> -P tests/orphan_headers.cmake
#
# `allowed` lists the headers that may stay unused outside tests; an
# entry that gains an includer must be dropped from the list.
cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P orphan_headers.cmake")
endif()

# Empty: test-only harnesses live under tests/support/, not src/.
set(allowed "")

file(GLOB_RECURSE headers RELATIVE ${ROOT}/src ${ROOT}/src/*.hpp)
file(GLOB_RECURSE includers
  ${ROOT}/src/*.hpp ${ROOT}/src/*.cpp
  ${ROOT}/bench/*.hpp ${ROOT}/bench/*.cpp
  ${ROOT}/examples/*.hpp ${ROOT}/examples/*.cpp)

set(included "")
foreach(file ${includers})
  # A header's own .cpp does not count as a use of it.
  file(RELATIVE_PATH own ${ROOT}/src ${file})
  string(REGEX REPLACE "\\.cpp$" ".hpp" own "${own}")
  file(STRINGS ${file} lines REGEX "^#include \"")
  foreach(line ${lines})
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" target "${line}")
    if(NOT target STREQUAL own)
      list(APPEND included ${target})
    endif()
  endforeach()
endforeach()

set(failures "")
foreach(header ${headers})
  list(FIND included ${header} used)
  list(FIND allowed ${header} exempt)
  if(used EQUAL -1 AND exempt EQUAL -1)
    string(APPEND failures "\n  src/${header} has no includer outside tests/ and its own .cpp")
  elseif(NOT used EQUAL -1 AND NOT exempt EQUAL -1)
    string(APPEND failures "\n  src/${header} is used now; drop it from the allow-list")
  endif()
endforeach()
foreach(header ${allowed})
  if(NOT EXISTS ${ROOT}/src/${header})
    string(APPEND failures "\n  allow-listed src/${header} does not exist")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "orphan headers:${failures}")
endif()
list(LENGTH headers count)
message(STATUS "${count} headers under src/, each with an includer or allow-listed")
