// Key distribution, gathering, and workload generation.
//
// The host scatters M unsorted keys over the live processors in equal
// blocks, padding the tail with dummy (+∞) keys exactly as the paper does;
// gathering concatenates blocks in logical order and strips the dummies.
// Every sorter names its live processors once, as a *slot list*: machine
// addresses in output order. Block i goes to slots[i], and the result is
// read back from the slots in the same order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {

using sim::Key;

/// Equal blocks of size ceil(M / live_count), dummy-padded.
struct Distribution {
  std::size_t block_size = 0;
  std::vector<std::vector<Key>> blocks;  ///< one per live slot, in order
};

Distribution distribute_evenly(std::span<const Key> keys,
                               std::uint32_t live_count);

/// Blocks placed on a machine: `block_of[u]` is node u's block, empty for a
/// node that holds no slot.
struct Placement {
  std::size_t block_size = 0;
  std::vector<std::vector<Key>> block_of;
};

/// distribute_evenly over `slots`, block i placed on machine node
/// slots[i] of a `num_nodes`-node machine.
Placement scatter(std::span<const Key> keys,
                  std::span<const cube::NodeId> slots,
                  std::uint32_t num_nodes);

/// The blocks of `slots`, in slot order, concatenated with the dummy keys
/// dropped: the output of a sort whose result lies in slot order.
std::vector<Key> gather(std::span<const std::vector<Key>> block_of,
                        std::span<const cube::NodeId> slots);

/// Concatenate blocks in order and drop dummy keys. The result of a correct
/// sort is ascending with all dummies trailing, so stripping preserves
/// order.
std::vector<Key> gather_and_strip(
    std::span<const std::vector<Key>> blocks);

// ---- Workload generators (all deterministic given the Rng) ----

/// Uniform random 48-bit keys (kept well below the dummy sentinel).
std::vector<Key> gen_uniform(std::size_t count, util::Rng& rng);
/// Already ascending input.
std::vector<Key> gen_sorted(std::size_t count);
/// Strictly descending input (adversarial for many sorts, not for bitonic).
std::vector<Key> gen_reverse(std::size_t count);
/// Keys drawn from only `distinct` values — stresses tie handling.
std::vector<Key> gen_few_distinct(std::size_t count, std::size_t distinct,
                                  util::Rng& rng);
/// Ascending then descending ("organ pipe") — classic merge stress shape.
std::vector<Key> gen_organ_pipe(std::size_t count);
/// Sorted input with `swaps` random transpositions.
std::vector<Key> gen_nearly_sorted(std::size_t count, std::size_t swaps,
                                   util::Rng& rng);

}  // namespace ftsort::sort
