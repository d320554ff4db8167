// rach.hpp — LTE-A RACH codec abstraction.
//
// Section IV of the paper uses a *pair* of RACH codecs: RACH1 carries the
// regular firefly proximity signals (keep-alive / synchronisation) inside a
// fragment, RACH2 carries the inter-fragment H_Connect handshake.  Because
// the LTE-A downlink is OFDMA, different codecs are orthogonal and never
// interfere; two transmissions with the *same* codec in the same slot can
// collide at a receiver unless the strongest dominates (capture effect).
//
// We model a codec as a class label plus a preamble index drawn from a
// finite pool (LTE has 64 Zadoff–Chu preambles; distinct preambles of the
// same codec class are also orthogonal, so collisions require same codec,
// same preamble, same slot).
#pragma once

#include <cstdint>

namespace firefly::mac {

/// The paper's two codec classes.
enum class RachCodec : std::uint8_t {
  kRach1 = 1,  ///< regular firefly operation (sync pulses, discovery)
  kRach2 = 2,  ///< inter-fragment synchronisation (H_Connect)
};

/// LTE-A RACH preamble pool size (36.211: 64 preambles per cell).
inline constexpr std::uint32_t kPreamblePoolSize = 64;

/// A concrete transmission resource: codec class + preamble index.
struct Preamble {
  RachCodec codec{RachCodec::kRach1};
  std::uint32_t index{0};  ///< [0, kPreamblePoolSize)

  friend constexpr bool operator==(Preamble a, Preamble b) = default;
};

/// Message type tags carried in a PS payload.  The protocols agree on these
/// instead of parsing bytes; the radio treats payloads as opaque.
enum class PsType : std::uint8_t {
  kSyncPulse = 0,     ///< firefly firing (phase reset announcement)
  kDiscovery = 1,     ///< neighbour/service discovery beacon
  kConnectRequest = 2,///< H_Connect: request over the heaviest outgoing edge
  kConnectAccept = 3, ///< H_Connect: accept / echo
  kMergeAnnounce = 4, ///< fragment merge: new head / fragment id broadcast
  kHeadToken = 5,     ///< Change_head: headship handover inside a fragment
  kSyncFlood = 6,     ///< keep-alive phase flood from a fragment head
};

}  // namespace firefly::mac
