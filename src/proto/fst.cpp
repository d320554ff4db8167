#include "proto/fst.hpp"

namespace firefly::proto {

using core::Fields;
using core::pack;

void FstEngine::on_start() {
  // Nothing beyond the base: oscillators free-run from random phases and
  // the first firings start the mutual coupling.
}

void FstEngine::emit_fire_broadcast(Device& device) {
  radio_.broadcast(device.id,
                   random_preamble(mac::RachCodec::kRach1),
                   mac::PsType::kSyncPulse,
                   pack(Fields{hot_.fragment[device.id], device.service,
                               counter_field(device.id), 0}));
}

void FstEngine::deliver_batched(const mac::RxBatch& batch) {
  // Full-mesh coupling fused into the receiver sweep: any audible pulse
  // adjusts the receiver's phase.
  sweep_batch(batch, [this](const mac::RxRecord& r) {
    if (r.type != mac::PsType::kSyncPulse) return;
    apply_pulse_coupling(r);
  });
}

}  // namespace firefly::proto
