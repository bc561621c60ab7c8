// ThreadPool shutdown determinism: Shutdown() drains every queued task
// exactly once, tasks submitted after (or racing with) shutdown run inline on
// the submitting thread, and TaskGroup::Wait can never hang on a closed pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/once_map.h"
#include "src/base/thread_pool.h"

namespace zkml {
namespace {

TEST(ThreadPoolTest, ShutdownDrainsEveryQueuedTaskExactlyOnce) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> runs{0};
  constexpr int kTasks = 256;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&] {
      runs.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  pool.Shutdown();  // must block until the queue is fully drained
  EXPECT_EQ(runs.load(), kTasks);
  group.Wait();  // everything already ran; must return immediately, not hang
  EXPECT_EQ(runs.load(), kTasks);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] { runs.fetch_add(1); });
    }
  }
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op, not a double-join
  EXPECT_EQ(runs.load(), 8);
}  // destructor calls Shutdown a third time

TEST(ThreadPoolTest, PostShutdownSubmitRunsInlineOnSubmitter) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  TaskGroup group(pool);
  group.Submit([&] {
    ran_on = std::this_thread::get_id();
    runs.fetch_add(1);
  });
  // The task already ran, synchronously, on this thread — never dropped.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  group.Wait();  // must not hang waiting for dead workers
}

TEST(ThreadPoolTest, SubmitRacingShutdownNeverLosesTasks) {
  // Hammer the race window: submitters keep enqueueing while another thread
  // shuts the pool down. Every submitted task must run (queued ones drained
  // by Shutdown, late ones inline), and every Wait must return.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> runs{0};
    std::atomic<int> submitted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        TaskGroup group(pool);
        for (int i = 0; i < 50; ++i) {
          submitted.fetch_add(1);
          group.Submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
        }
        group.Wait();
      });
    }
    pool.Shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(runs.load(), submitted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, StatsSlotsSurviveShutdown) {
  ThreadPool pool(3);
  {
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.Submit([] {});
    }
  }
  pool.Shutdown();
  // num_threads() and the per-worker stats layout (workers + helper slot)
  // keep their meaning after the workers are joined.
  EXPECT_EQ(pool.num_threads(), 3u);
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.workers.size(), 4u);  // 3 workers + helper slot
  uint64_t total = 0;
  for (const auto& w : stats.workers) total += w.tasks;
  EXPECT_EQ(total, stats.tasks_executed);
}

TEST(ThreadPoolTest, SiblingTasksSharingLazyInitDoNotDeadlock) {
  // Regression: sibling tasks of one group that all funnel through a shared
  // one-time initialization, where the initializer itself runs a nested
  // parallel section. With queue-wide work helping, the initializing thread's
  // nested Wait() could pick up a sibling task that then blocked on the
  // init guard the thread itself held — self-deadlock (seen with concurrent
  // shard compiles both reaching a lazily-measured hardware profile).
  // Group-local helping must complete this shape on any pool width.
  for (const size_t width : {size_t{1}, size_t{4}}) {
    ThreadPool pool(width);
    std::once_flag once;
    std::atomic<int> init_runs{0};
    std::atomic<int> task_runs{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] {
        std::call_once(once, [&] {
          // Nested parallel section inside the guarded initializer.
          TaskGroup inner(pool);
          for (int c = 0; c < 16; ++c) {
            inner.Submit([&] { init_runs.fetch_add(1, std::memory_order_relaxed); });
          }
          inner.Wait();
        });
        task_runs.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.Wait();
    EXPECT_EQ(init_runs.load(), 16);
    EXPECT_EQ(task_runs.load(), 8);
  }
}

// Racing callers of one key share a single build, even when the builder runs
// a parallel section while every other pool worker is blocked waiting on it.
TEST(OnceMapTest, RacingCallersShareOneBuild) {
  OnceMap<int, std::vector<int>> map;
  std::atomic<int> builds{0};
  const size_t tasks = 2 * ThreadPool::Global().num_threads() + 1;
  std::vector<const std::vector<int>*> got(tasks);
  {
    TaskGroup group;
    for (size_t t = 0; t < tasks; ++t) {
      group.Submit([&, t] {
        got[t] = &map.GetOrBuild(7, [&] {
          builds.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          std::vector<int> v(4096);
          ParallelFor(0, v.size(), [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) {
              v[i] = static_cast<int>(i);
            }
          });
          return v;
        });
      });
    }
  }
  EXPECT_EQ(builds.load(), 1);
  for (const std::vector<int>* v : got) {
    EXPECT_EQ(v, got[0]);
  }
  EXPECT_EQ((*got[0])[4095], 4095);
  EXPECT_EQ(map.GetOrBuild(8, [] { return std::vector<int>{1}; }), std::vector<int>{1});
}

}  // namespace
}  // namespace zkml
