#include "proto/registry.hpp"

#include <utility>

#include "core/engine.hpp"
#include "proto/birthday.hpp"
#include "proto/desync.hpp"
#include "proto/fst.hpp"
#include "proto/st.hpp"

namespace firefly::proto {

namespace {

template <typename Engine>
std::unique_ptr<core::EngineBase> make_engine(std::vector<geo::Vec2> positions,
                                              const core::ProtocolParams& params,
                                              const phy::RadioParams& radio,
                                              std::uint64_t seed) {
  return std::make_unique<Engine>(std::move(positions), params, radio, seed);
}

}  // namespace

const Registry& Registry::instance() {
  static const Registry registry({
      {"fst", "full-mesh firefly baseline (Chao et al. 2013)", core::Protocol::kFst,
       &make_engine<FstEngine>},
      {"st", "spanning-tree firefly (the paper's proposed algorithm)", core::Protocol::kSt,
       &make_engine<StEngine>},
      {"birthday", "sync-free random-beacon discovery baseline", core::Protocol::kBirthday,
       &make_engine<BirthdayEngine>},
      {"desync", "dithered desynchronisation to a round-robin schedule (arXiv:1210.2122)",
       core::Protocol::kDesync, &make_engine<DesyncEngine>},
  });
  return registry;
}

const ProtocolInfo* Registry::find(std::string_view name) const {
  for (const ProtocolInfo& info : infos_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const ProtocolInfo* Registry::find(core::Protocol id) const {
  for (const ProtocolInfo& info : infos_) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(infos_.size());
  for (const ProtocolInfo& info : infos_) out.push_back(info.name);
  return out;
}

std::unique_ptr<core::EngineBase> Registry::make(std::string_view name,
                                                 std::vector<geo::Vec2> positions,
                                                 const core::ProtocolParams& params,
                                                 const phy::RadioParams& radio,
                                                 std::uint64_t seed) const {
  const ProtocolInfo* info = find(name);
  if (info == nullptr) return nullptr;
  return info->factory(std::move(positions), params, radio, seed);
}

std::unique_ptr<core::EngineBase> Registry::make(core::Protocol id,
                                                 std::vector<geo::Vec2> positions,
                                                 const core::ProtocolParams& params,
                                                 const phy::RadioParams& radio,
                                                 std::uint64_t seed) const {
  const ProtocolInfo* info = find(id);
  if (info == nullptr) return nullptr;
  return info->factory(std::move(positions), params, radio, seed);
}

}  // namespace firefly::proto
