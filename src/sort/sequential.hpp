// Sequential sorting kernels used inside each simulated processor.
//
// Everything is written from scratch (the paper's Step 3 prescribes
// heapsort) and every kernel reports the number of key comparisons it
// performed so the simulator can charge t_c faithfully. The count is part
// of every simulated time, so each kernel's counting rule below is a
// contract: a faster kernel must make the same comparisons, in the same
// order. heapsort, merge_sorted_into and sort_unimodal count into locals
// and add them to the caller's `comparisons` after their loops: the
// counter is a std::uint64_t& that may alias the std::int64_t keys, so
// bumping it inside a loop costs a load and a store per comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/message.hpp"

namespace ftsort::sort {

using sim::Key;

/// In-place heapsort, ascending: build a max-heap bottom-up, then move the
/// root to the back n - 1 times. Each sift-down counts two comparisons per
/// level at a parent with two children (which child is larger, then
/// whether it is <= the sifted key; it stops at the first yes) and one at
/// the lone-left-child parent of an even-sized heap.
void heapsort(std::span<Key> data, std::uint64_t& comparisons);

/// Top-down merge sort (stable, ~n log n comparisons, n extra space).
/// The paper prescribes heapsort for Step 3; this is the ablation
/// alternative with a lower comparison count.
void mergesort(std::span<Key> data, std::uint64_t& comparisons);

/// Median-of-three quicksort with insertion-sort cutoff. Expected
/// ~1.39 n log n comparisons; in-place.
void quicksort(std::span<Key> data, std::uint64_t& comparisons);

/// Which algorithm a node uses for its local Step 3 sort.
enum class LocalSort { Heapsort, Mergesort, Quicksort };

void local_sort(LocalSort algorithm, std::span<Key> data,
                std::uint64_t& comparisons);

/// Stable two-way merge of ascending runs into caller-owned `out` (resized,
/// capacity reused across calls). `out` must not alias the inputs. One
/// comparison per key placed while both runs still hold keys.
void merge_sorted_into(std::span<const Key> a, std::span<const Key> b,
                       std::vector<Key>& out, std::uint64_t& comparisons);

/// Sort a *unimodal* sequence — one that rises then falls (peak) or falls
/// then rises (valley); both shapes arise from pairwise min/max selections
/// in the half-exchange protocol. Merges the two monotone runs of `data`
/// directly into `scratch` (reading one of them backwards instead of
/// materialising reversed copies) and swaps the result back into `data`;
/// zero allocations once `scratch` is warm. O(n), at most 2n - 1
/// comparisons: one for the direction, taken at the first key that differs
/// from its predecessor; one per index scanned from that key up to and
/// including the turn (or to the end, if there is none); and one per key
/// placed while both runs still hold keys. An all-equal input costs none.
void sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                   std::uint64_t& comparisons);

/// True iff ascending (non-strict).
bool is_ascending(std::span<const Key> data);

/// True iff the concatenation of blocks, in order, is ascending.
bool is_globally_ascending(std::span<const std::vector<Key>> blocks);

}  // namespace ftsort::sort
