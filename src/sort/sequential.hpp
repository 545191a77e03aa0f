// Sequential sorting kernels used inside each simulated processor.
//
// Everything is written from scratch (the paper's Step 3 prescribes
// heapsort) and every kernel reports the number of key comparisons it
// performed so the simulator can charge t_c faithfully.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/message.hpp"

namespace ftsort::sort {

using sim::Key;

/// In-place heapsort, ascending. Returns nothing; comparisons are
/// accumulated into `comparisons`.
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
/// capacity reused across calls). `out` must not alias the inputs.
void merge_sorted_into(std::span<const Key> a, std::span<const Key> b,
                       std::vector<Key>& out, std::uint64_t& comparisons);

/// Sort a *unimodal* sequence — one that rises then falls (peak) or falls
/// then rises (valley); both shapes arise from pairwise min/max selections
/// in the half-exchange protocol. O(n) with at most n extra comparisons.
/// Merges the two monotone runs of `data` directly into `scratch` (reading
/// one of them backwards instead of materialising reversed copies) and
/// swaps the result back into `data`; zero allocations once `scratch` is
/// warm.
void sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                   std::uint64_t& comparisons);

/// True iff ascending (non-strict).
bool is_ascending(std::span<const Key> data);

/// True iff the concatenation of blocks, in order, is ascending.
bool is_globally_ascending(std::span<const std::vector<Key>> blocks);

}  // namespace ftsort::sort
