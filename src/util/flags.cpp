#include "util/flags.hpp"

#include <cstdlib>

namespace firefly::util {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself a flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

std::string Flags::get(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return it->second;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

}  // namespace firefly::util
