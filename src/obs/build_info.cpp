#include "obs/build_info.hpp"

#include "obs/git_sha.h"  // generated at build time: FIREFLY_GIT_SHA

namespace firefly::obs {

namespace {

#ifndef FIREFLY_BUILD_TYPE
#define FIREFLY_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

}  // namespace

BuildInfo build_info() {
  return BuildInfo{FIREFLY_GIT_SHA, kCompiler, FIREFLY_BUILD_TYPE};
}

void write_build_info_fields(JsonWriter& w) {
  const BuildInfo info = build_info();
  w.field("git_sha", info.git_sha)
      .field("compiler", info.compiler)
      .field("build_type", info.build_type);
}

}  // namespace firefly::obs
