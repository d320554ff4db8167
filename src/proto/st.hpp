// st.hpp — the proposed ST algorithm (paper Algorithms 1–3).
//
// GHS/Borůvka-style fragment growth over RSSI-weighted edges, with the
// paper's two-codec split: RACH1 carries regular firefly operation (sync
// pulses + discovery beacons), RACH2 carries fragment control (H_Connect
// request/accept, merge announcements, Change_head tokens).
//
// Protocol sketch (all messages are radio broadcasts; "addressed" means
// the payload names a target and others ignore it):
//   1. Discovery window: every device beacons a few times at random slots,
//      so neighbour tables hold PS-strength weights before merging starts.
//   2. Every device starts as the head of its own singleton fragment.
//      Heads act on a periodic round timer (staggered by device id):
//        - H_Connect (Algorithm 2): pick the *heaviest* outgoing edge
//          (strongest-PS neighbour in another fragment) and send a
//          ConnectRequest; the peer answers ConnectAccept.  Both ends then
//          agree deterministically on the merge winner — the larger
//          fragment, ties to the smaller label (Algorithm 1 line 12) — and
//          the losing side adopts the winner's label AND oscillator phase.
//        - Change_head (Algorithm 1 line 10): a head with no outgoing edge
//          passes headship to a tree neighbour round-robin.
//   3. Merge announcements flood through the losing fragment (each member
//      relays once), re-stamping the relayer's now-synchronised counter so
//      every member adopts the winner's phase (this is the
//      "F_F_A(..., RACH2)" inter-subtree synchronisation of Algorithm 1).
//   4. Sync pulses (RACH1) couple only along tree edges, polishing residual
//      offset; convergence is detected exactly as for FST.
//
// Robustness against message loss, churn and partitions: connect retries
// with bounded exponential backoff and a retry cap (after which headship
// moves on), announce dedup by (winner, loser), and a head *lease* — a
// member that has heard no proof of a live head for its fragment for
// head_lease_periods re-labels the reachable remnant under a fresh label
// and takes headship, so fragments orphaned by a crashed head, a lost head
// token or a network partition re-join through the normal H_Connect
// machinery.  Crashed devices cold-boot as singleton fragments under a
// fresh label (`on_recover`).
#pragma once

#include "core/engine.hpp"

namespace firefly::proto {

using core::Device;
using core::EngineBase;
using core::RunMetrics;

class StEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  void on_start() override;
  void deliver_batched(const mac::RxBatch& batch) override;
  void emit_fire_broadcast(Device& device) override;
  void fill_protocol_metrics(RunMetrics& metrics) const override;
  /// Algorithm 1 terminates when one fragment spans the (live) network.
  [[nodiscard]] bool protocol_complete() const override;
  /// Cold-boot fragment state after a crash: singleton head, fresh label.
  void on_recover(Device& device) override;
  /// Snapshot/restore: the fresh-label cursor is ST's only engine-level
  /// mutable scalar (everything else lives in the Device records).
  [[nodiscard]] std::uint64_t protocol_snapshot_word() const override {
    return next_label_;
  }
  void protocol_restore_word(std::uint64_t word) override {
    next_label_ = static_cast<std::uint16_t>(word);
  }

  /// Strongest fresh neighbour outside the device's fragment, or nullptr.
  /// Answers from the device's outgoing bound (core::DeviceHot) without a
  /// scan when no outgoing entry can be fresh; a scan refreshes the bound.
  [[nodiscard]] const std::uint32_t* best_outgoing(const Device& device);
  /// Whether best_outgoing would return an edge; stops at the first one.
  [[nodiscard]] bool has_outgoing(const Device& device);

 private:
  /// One decoded PS (the per-record body of deliver_batched's sweep).
  void on_record(const mac::RxRecord& record);
  void round_action(Device& device);
  /// The neighbour-table walk behind best_outgoing (kFirst: has_outgoing).
  template <bool kFirst>
  [[nodiscard]] const std::uint32_t* scan_outgoing(const Device& device);
  void attempt_connect(Device& device);
  /// Pass headship to a tree neighbour; false when there is nobody to pass
  /// it to (or the fragment has gone quiet and the head parks instead).
  bool change_head(Device& device);
  /// Head-lease expiry: re-label the reachable remnant of a headless
  /// fragment and take headship (see the file comment).
  void maybe_reclaim_headless_fragment(Device& device);
  /// A fragment label never used by a live fragment before (labels from the
  /// id range are only minted by the initial singletons and orphan
  /// restarts; recovery and lease reclaim must not collide with them).
  [[nodiscard]] std::uint16_t fresh_label();
  /// Deterministic winner rule shared by both H_Connect endpoints.
  [[nodiscard]] static bool left_wins(std::uint16_t left_frag, std::uint16_t left_size,
                                      std::uint16_t right_frag, std::uint16_t right_size);
  void local_merge(Device& device, std::uint16_t peer_frag, std::uint16_t peer_size,
                   std::uint32_t peer_device, std::uint32_t adopted_counter);
  void emit_announce(Device& device, std::uint16_t winner, std::uint16_t loser,
                     std::uint16_t new_size);
  void handle_announce(Device& device, const mac::RxRecord& record);
  /// Keep-alive phase flood from a head (once per firing period).
  void emit_sync_flood(Device& device);
  /// Mobility repair: drop silent tree edges; restart orphaned devices as
  /// singleton fragments.
  void prune_stale_tree_edges(Device& device);

  std::uint16_t next_label_{0};  ///< fresh_label cursor (starts past the ids)
};

}  // namespace firefly::proto
