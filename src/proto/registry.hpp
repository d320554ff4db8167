// registry.hpp — stable protocol ids → engine factories.
//
// One static table maps CLI-facing lower-case names ("st", "fst",
// "birthday", "desync") and the `core::Protocol` enum to factories that
// build a ready-to-run engine from deployed positions and the parameter
// blocks.  `run_trial`, `run_service_trial`, `core::sweep` and
// `firefly_cli --protocol` all resolve through here, so adding a backend is:
// derive it from EngineBase and override its protocol hooks, add a row to
// the table in `Registry::instance()`, and every trial driver, bench sweep
// and CLI flag picks it up.
//
// Lookup is by linear scan over the table: it holds a handful of entries,
// and `names()` must enumerate deterministically (CLI help, error messages,
// bench meta records).  The JSON/metrics id of an entry is
// `core::to_string(id)`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "geo/point.hpp"

namespace firefly::core {
class EngineBase;
}  // namespace firefly::core

namespace firefly::proto {

/// Factory signature: deployed positions plus the parameter blocks one
/// trial needs, returning an engine ready for set_trace/set_telemetry/run.
using EngineFactory = std::unique_ptr<core::EngineBase> (*)(
    std::vector<geo::Vec2> positions, const core::ProtocolParams& params,
    const phy::RadioParams& radio, std::uint64_t seed);

struct ProtocolInfo {
  std::string name;     ///< registry id, lower-case (CLI-facing): "st"
  std::string summary;  ///< one-liner for --help and error messages
  core::Protocol id{};  ///< enum for switch-free enum-keyed dispatch
  EngineFactory factory{nullptr};
};

class Registry {
 public:
  /// The process-wide table of the built-in backends (fst, st, birthday,
  /// desync, in that order), built on first use.
  [[nodiscard]] static const Registry& instance();

  /// Lookup by registry name; nullptr when unknown.
  [[nodiscard]] const ProtocolInfo* find(std::string_view name) const;
  /// Lookup by enum id; nullptr when unknown.
  [[nodiscard]] const ProtocolInfo* find(core::Protocol id) const;

  /// Registry names in registration order (deterministic).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Build an engine by registry name; nullptr when `name` is unknown.
  [[nodiscard]] std::unique_ptr<core::EngineBase> make(
      std::string_view name, std::vector<geo::Vec2> positions,
      const core::ProtocolParams& params, const phy::RadioParams& radio,
      std::uint64_t seed) const;
  /// Build an engine by enum id; nullptr when `id` is unregistered.
  [[nodiscard]] std::unique_ptr<core::EngineBase> make(
      core::Protocol id, std::vector<geo::Vec2> positions,
      const core::ProtocolParams& params, const phy::RadioParams& radio,
      std::uint64_t seed) const;

 private:
  explicit Registry(std::vector<ProtocolInfo> infos) : infos_(std::move(infos)) {}

  std::vector<ProtocolInfo> infos_;  ///< table order
};

}  // namespace firefly::proto
