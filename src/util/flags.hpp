// flags.hpp — minimal command-line flag parsing for the tools/examples.
//
// Supports `--name value`, `--name=value` and bare boolean `--name`
// (read with `has`); a token that is not a flag is skipped.
// Unknown flags are collected so callers can reject typos instead of
// silently ignoring them.  No global state; each parser owns its argv view.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace firefly::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name, std::string fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;

  /// Flags that were parsed (for unknown-flag checks).
  [[nodiscard]] std::vector<std::string> names() const;
  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace firefly::util
