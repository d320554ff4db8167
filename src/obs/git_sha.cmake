# Writes the build-info sha header at build time: `cmake -P` with
# SOURCE_DIR (inside the git checkout) and OUTPUT (the header).  The header
# is rewritten only when the sha changes, so a build with nothing new to
# compile recompiles nothing.  Outside a git checkout the sha is "unknown".
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(content "#define FIREFLY_GIT_SHA \"${sha}\"\n")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
