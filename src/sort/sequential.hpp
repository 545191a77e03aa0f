// Sequential sorting kernels used inside each simulated processor.
//
// Everything is written from scratch (the paper's Step 3 prescribes
// heapsort) and every kernel reports the number of key comparisons it
// performed so the simulator can charge t_c faithfully. The count is part
// of every simulated time, so each kernel's counting rule below is a
// contract: a faster kernel must count the comparisons of its textbook
// loop. The rules hold on the copy paths too: where a kernel, or the half
// exchange (merge_split.hpp), sees from the end keys of its runs that they
// are already in order, it copies them instead of comparing key by key
// and counts what the loop would have counted; whatever the ends do not
// settle runs the loop. heapsort, mergesort, merge_sorted_into and
// sort_unimodal count into locals and add them to the caller's
// `comparisons` after their loops: the counter is a std::uint64_t& that
// may alias the std::int64_t keys, so bumping it inside a loop costs a
// load and a store per comparison.
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

/// Top-down merge sort (stable, ~n log n comparisons, n extra space): it
/// splits at n / 2, sorts both halves and merges them, and each merge
/// counts by merge_sorted_into's rule, copies of runs that do not overlap
/// included. The paper prescribes heapsort for Step 3; this is the
/// ablation alternative with a lower comparison count.
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
/// comparison per key placed while both runs still hold keys. Runs that do
/// not overlap are copied, and counted by the same rule: |a| when a's last
/// key is <= b's first, |b| when b's last is < a's first.
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
/// placed while both runs still hold keys, by merge_sorted_into's rule,
/// also when runs that do not overlap are copied. An all-equal input costs
/// none. A monotone input is reversed in place if it descends and is never
/// swapped with `scratch`.
void sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                   std::uint64_t& comparisons);

/// The comparisons sort_unimodal counts on `run` read forwards, or
/// backwards when `read_backward`, given that this read is monotone: 1 +
/// n - (the index of its first key that differs from its predecessor), or
/// none when n < 2 or all keys are equal. Reads only the leading plateau.
/// The half exchange charges it for pieces it copies instead of scanning.
std::uint64_t monotone_unimodal_count(std::span<const Key> run,
                                      bool read_backward);

/// True iff ascending (non-strict).
bool is_ascending(std::span<const Key> data);

/// True iff the concatenation of blocks, in order, is ascending.
bool is_globally_ascending(std::span<const std::vector<Key>> blocks);

}  // namespace ftsort::sort
