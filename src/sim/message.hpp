// Message and key types exchanged by simulated processors.
#pragma once

#include <cstdint>
#include <limits>

#include "hypercube/address.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/cost_model.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

// Sort key (64-bit signed so workload generators can use the full range)
// — defined in buffer_pool.hpp alongside the payload storage type.

/// Padding sentinel (the paper's "dummy key (∞)"): compares greater than
/// every real key, so dummies collect at the top of the sorted order and are
/// stripped on gather.
inline constexpr Key kDummyKey = std::numeric_limits<Key>::max();

/// Message tag; algorithms use distinct tags per protocol phase so that
/// unrelated exchanges can never be confused.
using Tag = std::uint32_t;

struct Message {
  cube::NodeId src = 0;
  cube::NodeId dst = 0;
  Tag tag = 0;
  /// Pooled payload storage: checked out of the sender's BufferPool, handed
  /// to the receiver's at delivery and returned there when the receiver
  /// drops (or `release_into`s) it.
  PooledBuffer payload;
  SimTime sent_at = 0.0;   ///< sender clock when the send was issued
  SimTime arrival = 0.0;   ///< store-and-forward arrival time at dst
  int hops = 0;            ///< link traversals the router charged
  /// Sender's ambient phase at the send — attribution target for drops.
  Phase phase = Phase::Unattributed;
};

}  // namespace ftsort::sim
