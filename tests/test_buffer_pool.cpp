// Tests for the payload buffer pool and its owning handle.
#include <gtest/gtest.h>

#include <vector>

#include "sim/buffer_pool.hpp"

namespace ftsort::sim {
namespace {

TEST(BufferPool, RecyclesStorageAndCountsAllocations) {
  BufferPool pool;
  std::vector<Key> a = pool.checkout(64);
  EXPECT_GE(a.capacity(), 64u);
  const Key* storage = a.data();
  a.assign(64, 7);
  pool.give_back(std::move(a));
  // The next checkout of no greater size must reuse the same storage.
  std::vector<Key> b = pool.checkout(32);
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());  // contents are discarded on return
  pool.give_back(std::move(b));

  const PoolStats s = pool.stats();
  EXPECT_EQ(s.checkouts, 2u);
  EXPECT_EQ(s.fresh, 1u);  // only the first checkout touched the heap
  EXPECT_EQ(s.grows, 0u);
  EXPECT_EQ(s.returns, 2u);
  EXPECT_EQ(s.heap_allocations(), 1u);
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(BufferPool, GrowingARecycledBufferIsCounted) {
  BufferPool pool;
  pool.give_back(pool.checkout(8));
  std::vector<Key> big = pool.checkout(4096);
  EXPECT_GE(big.capacity(), 4096u);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.fresh, 1u);
  EXPECT_EQ(s.grows, 1u);
}

TEST(BufferPool, PooledBufferReturnsOnDestructionAndReleaseInto) {
  BufferPool pool;
  {
    PooledBuffer handle(&pool, pool.checkout(16));
    handle.vec().assign({1, 2, 3});
    EXPECT_EQ(handle.size(), 3u);
  }  // destruction returns the storage
  EXPECT_EQ(pool.free_count(), 1u);

  PooledBuffer handle(&pool, pool.checkout(16));
  handle.vec().assign({4, 5});
  std::vector<Key> mine{9, 9, 9};
  handle.release_into(mine);
  EXPECT_EQ(mine, (std::vector<Key>{4, 5}));
  // My old storage went back in the payload's place.
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.stats().returns, 2u);
}

TEST(BufferPool, MoveTransfersOwnershipExactlyOnce) {
  BufferPool pool;
  PooledBuffer a(&pool, pool.checkout(8));
  PooledBuffer b(std::move(a));
  a.reset();  // moved-from handle must be inert
  EXPECT_EQ(pool.free_count(), 0u);
  b.reset();
  EXPECT_EQ(pool.free_count(), 1u);
  b.reset();  // double reset is a no-op
  EXPECT_EQ(pool.stats().returns, 1u);
}

TEST(BufferPool, RebindReturnsStorageToTheNewOwner) {
  // A delivered payload: checked out of the sender's pool, handed to the
  // receiver's, which recycles it for the receiver's next send.
  BufferPool sender;
  BufferPool receiver;
  PooledBuffer payload(&sender, sender.checkout(16));
  const Key* storage = payload.data();
  payload.rebind(receiver);
  payload.reset();
  EXPECT_EQ(sender.stats().returns, 0u);
  EXPECT_EQ(sender.free_count(), 0u);
  EXPECT_EQ(receiver.stats().returns, 1u);
  const std::vector<Key> reply = receiver.checkout(16);
  EXPECT_EQ(reply.data(), storage);
  EXPECT_EQ(receiver.stats().heap_allocations(), 0u);
}

}  // namespace
}  // namespace ftsort::sim
