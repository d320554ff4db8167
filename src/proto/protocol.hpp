// protocol.hpp — the DiscoveryProtocol interface every proximity backend
// implements.
//
// `core::EngineBase` owns the substrate of one simulated trial — scheduler,
// Table I channel, radio medium, device array, convergence detectors,
// snapshot/restore — and derives from this interface; a protocol backend is
// the strategy layered on top.  The hook set covers the full lifecycle:
//
//   * on_start / deliver_batched / emit_fire_broadcast — what runs at t = 0,
//     the reaction to one slot's decoded receptions (delivered as a single
//     contiguous batch — see mac::RxBatch — so the engine sweeps receivers
//     through the SoA hot arrays instead of taking one virtual call per
//     pair), and the payload a firing broadcasts (the protocol state
//     machine proper);
//   * protocol_complete / requires_sync — how the protocol's own goal folds
//     into the convergence criterion;
//   * fill_protocol_metrics / fill_soak_window — the numbers the protocol
//     contributes to RunMetrics and to service-mode soak windows;
//   * on_recover — cold-boot protocol state after a fault-injected crash;
//   * protocol_snapshot_word / protocol_restore_word — engine-level scalar
//     state for the in-process rollback checkpoint (per-device state rides
//     along with the cold Device records and the hot block, and needs
//     nothing here).
//
// Backends live in src/proto/ (st, fst, birthday, desync) and are resolved
// by stable string id through proto::Registry (registry.hpp); run_trial,
// run_service and the CLI never name a concrete engine class.
#pragma once

#include <cstdint>

namespace firefly::mac {
struct RxBatch;
}  // namespace firefly::mac

namespace firefly::sim {
struct SoakWindow;
}  // namespace firefly::sim

namespace firefly::core {
struct Device;
struct RunMetrics;
}  // namespace firefly::core

namespace firefly::proto {

class DiscoveryProtocol {
 public:
  virtual ~DiscoveryProtocol() = default;

 protected:
  /// Called once before the event loop starts.
  virtual void on_start() = 0;
  /// Protocol reaction to one slot's decoded PSs.  The batch holds every
  /// reception the radio resolved this slot, in the deterministic receiver
  /// order the per-pair API used to dispatch in; engines sweep it once,
  /// fusing their PCO phase update into the same pass.
  virtual void deliver_batched(const mac::RxBatch& batch) = 0;
  /// Broadcast emitted when `device` fires (protocols differ in payload).
  virtual void emit_fire_broadcast(core::Device& device) = 0;
  /// Hook for metrics specific to a protocol (tree stats, desync error…).
  virtual void fill_protocol_metrics(core::RunMetrics& /*metrics*/) const {}
  /// Protocol-specific observables for one service-mode telemetry window,
  /// sampled at the window's end slot.
  virtual void fill_soak_window(sim::SoakWindow& /*window*/) const {}
  /// Protocol-specific termination condition folded into convergence.
  /// The ST algorithm (paper Algorithm 1) runs `while |ST| != 1`, so its
  /// convergence additionally requires the spanning structure to be
  /// complete; DESYNC requires the anti-phase fixed point; the baseline has
  /// no such requirement.
  [[nodiscard]] virtual bool protocol_complete() const { return true; }
  /// Whether convergence includes the global firing-alignment goal.
  /// Discovery-only baselines (birthday protocols) and anti-sync schemes
  /// (DESYNC) waive it by design.
  [[nodiscard]] virtual bool requires_sync() const { return true; }
  /// Protocol-state reset when a crashed device cold-boots (fault
  /// injection).  The engine already clears the oscillator and the
  /// neighbour table; ST additionally resets its fragment state here.
  virtual void on_recover(core::Device& /*device*/) {}
  /// Protocol-level scalar state for snapshot/restore, packed into one word
  /// (ST: the fresh-label cursor; DESYNC: the sustained-check counter).
  [[nodiscard]] virtual std::uint64_t protocol_snapshot_word() const { return 0; }
  virtual void protocol_restore_word(std::uint64_t /*word*/) {}
};

}  // namespace firefly::proto
