#include "parallel/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace bfhrf::parallel {
namespace {

TEST(BoundedQueueTest, FifoSingleThread) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.push(int{i}));
  }
  q.close();
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.push(1));
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueueTest, PushFailsAfterClose) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.push(42));
  int out = 0;
  EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueueTest, CloseDrainsPendingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueueTest, AbortDiscardsPendingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.abort();
  EXPECT_TRUE(q.aborted());
  EXPECT_EQ(q.size(), 0u);
  int out = 0;
  EXPECT_FALSE(q.pop(out));
  EXPECT_FALSE(q.push(3));
}

TEST(BoundedQueueTest, ProducerBlocksUntilSpaceFreesUp) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));  // queue now full
  std::atomic<bool> second_pushed{false};
  std::jthread producer([&] {
    EXPECT_TRUE(q.push(1));  // blocks until the pop below
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());  // still blocked on the full queue
  int out = -1;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 0);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
}

TEST(BoundedQueueTest, ShutdownWhileFullUnblocksProducers) {
  // Producers blocked on a full queue must wake on close() and observe a
  // failed push; items already queued still drain.
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::atomic<int> failed_pushes{0};
  std::vector<std::jthread> producers;
  producers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&q, &failed_pushes] {
      if (!q.push(99)) {
        failed_pushes.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producers.clear();  // join
  EXPECT_EQ(failed_pushes.load(), 3);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueueTest, AbortWhileFullUnblocksProducers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::atomic<bool> push_failed{false};
  std::jthread producer([&] {
    if (!q.push(99)) {
      push_failed.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.abort();
  producer.join();
  EXPECT_TRUE(push_failed.load());
  int out = 0;
  EXPECT_FALSE(q.pop(out));  // aborted queues discard even queued items
}

TEST(BoundedQueueTest, CloseWhileEmptyUnblocksConsumers) {
  // Consumers blocked on an empty queue must wake on close() and observe a
  // failed pop (closed-and-drained), not hang.
  BoundedQueue<int> q(4);
  std::atomic<int> failed_pops{0};
  std::vector<std::jthread> consumers;
  consumers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&q, &failed_pops] {
      int out = 0;
      if (!q.pop(out)) {
        failed_pops.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumers.clear();  // join
  EXPECT_EQ(failed_pops.load(), 3);
}

TEST(BoundedQueueTest, AbortWhileEmptyUnblocksConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<bool> pop_failed{false};
  std::jthread consumer([&] {
    int out = 0;
    if (!q.pop(out)) {
      pop_failed.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.abort();
  consumer.join();
  EXPECT_TRUE(pop_failed.load());
}

TEST(BoundedQueueTest, AbortMidStreamUnblocksBothSides) {
  // Producers blocked on a full queue AND consumers racing pops must all
  // come unstuck when abort() lands mid-stream, with no further
  // successful operations afterwards.
  BoundedQueue<int> q(2);
  std::atomic<bool> stop_feeding{false};
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};

  std::vector<std::jthread> producers;
  std::vector<std::jthread> consumers;
  producers.reserve(2);
  consumers.reserve(2);
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      int i = 0;
      while (!stop_feeding.load() && q.push(int{i})) {
        ++i;
        produced.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      int out = 0;
      // Slow consumers keep the queue mostly full, so producers block.
      while (q.pop(out)) {
        consumed.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  q.abort();
  stop_feeding.store(true);
  producers.clear();
  consumers.clear();

  EXPECT_TRUE(q.aborted());
  // Abort discards: some produced items may legitimately never be
  // consumed, but nothing is conjured from thin air.
  EXPECT_LE(consumed.load(), produced.load());
  int out = 0;
  EXPECT_FALSE(q.pop(out));
  EXPECT_FALSE(q.push(1));
}

TEST(BoundedQueueTest, MpmcStressPreservesEveryItem) {
  // 4 producers × 4 consumers over a deliberately tiny queue: every pushed
  // value must be popped exactly once, under heavy blocking on both sides.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  constexpr int kTotal = kProducers * kPerProducer;

  BoundedQueue<int> q(3);
  std::vector<std::atomic<int>> seen(kTotal);
  std::atomic<int> popped{0};

  std::vector<std::jthread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int item = -1;
      while (q.pop(item)) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
        popped.fetch_add(1);
      }
    });
  }
  {
    std::vector<std::jthread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          EXPECT_TRUE(q.push(p * kPerProducer + i));
        }
      });
    }
  }  // producers join
  q.close();
  consumers.clear();  // consumers join

  EXPECT_EQ(popped.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

}  // namespace
}  // namespace bfhrf::parallel
