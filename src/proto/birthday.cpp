#include "proto/birthday.hpp"

namespace firefly::proto {

using core::Fields;
using core::pack;

void BirthdayEngine::on_start() {
  // Every device beacons once per period from a random initial phase — the
  // same average transmission rate as the firefly protocols' sync pulses,
  // with zero coordination.  No coupling ever happens, so beacon times stay
  // i.i.d. uniform across the population (the birthday-protocol regime).
}

void BirthdayEngine::emit_fire_broadcast(Device& device) {
  radio_.broadcast(device.id, random_preamble(mac::RachCodec::kRach1),
                   mac::PsType::kDiscovery,
                   pack(Fields{hot_.fragment[device.id], device.service, 0, 0}));
}

void BirthdayEngine::deliver_batched(const mac::RxBatch& batch) {
  // Pure birthday protocol: receive, record (the sweep updates the
  // neighbour table), never react.
  sweep_batch(batch, [](const mac::RxRecord& /*record*/) {});
}

}  // namespace firefly::proto
