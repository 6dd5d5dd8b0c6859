#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hmetis_r.hpp"
#include "sched/ready.hpp"
#include "sched/work_queue_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::sched {
namespace {

using core::DataId;
using core::TaskId;

core::Platform tiny_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

/// MemoryView stub with an explicit set of resident data.
class StubMemory final : public core::MemoryView {
 public:
  explicit StubMemory(std::set<DataId> present = {})
      : present_(std::move(present)) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_.contains(data);
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_.contains(data);
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return 10 * present_.size();
  }
  void add(DataId data) { present_.insert(data); }

 private:
  std::set<DataId> present_;
};

TEST(Eager, PopsInSubmissionOrder) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 2, .data_bytes = 10});
  EagerScheduler eager;
  eager.prepare(graph, tiny_platform(2, 100), 0);
  StubMemory memory;
  for (TaskId expected = 0; expected < 4; ++expected) {
    EXPECT_EQ(eager.pop_task(expected % 2, memory), expected);
  }
  EXPECT_EQ(eager.pop_task(0, memory), core::kInvalidTask);
}

TEST(Ready, PicksTaskWithFewestMissingBytes) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  const DataId d2 = builder.add_data(10);
  builder.add_task(1.0, {d0, d1});  // t0: 1 missing with d0 present
  builder.add_task(1.0, {d0});      // t1: 0 missing
  builder.add_task(1.0, {d2});      // t2: 1 missing
  const core::TaskGraph graph = builder.build();

  StubMemory memory({d0});
  std::deque<TaskId> queue{0, 1, 2};
  EXPECT_EQ(pop_ready(queue, graph, memory), 1u);
  EXPECT_EQ(queue.size(), 2u);
  // Next best: t0 (10 missing bytes) vs t2 (10): tie -> earliest in queue.
  EXPECT_EQ(pop_ready(queue, graph, memory), 0u);
}

TEST(Ready, WindowBoundsTheLookahead) {
  core::TaskGraphBuilder builder;
  const DataId far = builder.add_data(10);
  const DataId near = builder.add_data(10);
  for (int i = 0; i < 5; ++i) builder.add_task(1.0, {far});
  builder.add_task(1.0, {near});  // index 5, outside window of 3
  const core::TaskGraph graph = builder.build();

  StubMemory memory({near});
  std::deque<TaskId> queue{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(pop_ready(queue, graph, memory, /*window=*/3), 0u);
  EXPECT_EQ(pop_ready(queue, graph, memory, /*window=*/16), 5u);
}

TEST(Ready, EmptyQueueReturnsInvalid) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 1, .data_bytes = 10});
  StubMemory memory;
  std::deque<TaskId> queue;
  EXPECT_EQ(pop_ready(queue, graph, memory), core::kInvalidTask);
}

/// MemoryView over an explicit present-or-fetching set that journals every
/// flip, or keeps no journal.
class JournalMemory final : public core::MemoryView {
 public:
  JournalMemory(std::uint32_t num_data, bool journaled)
      : present_(num_data, false), journaled_(journaled) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }
  [[nodiscard]] const std::vector<DataId>* residency_journal() const override {
    return journaled_ ? &journal_ : nullptr;
  }
  void flip(DataId data) {
    present_[data] = !present_[data];
    journal_.push_back(data);
  }

 private:
  std::vector<bool> present_;
  std::vector<DataId> journal_;
  bool journaled_;
};

TEST(ReadyIndex, MatchesTheScanUnderChurn) {
  // Random sizes (ties included), shared inputs, interleaved appends, flips,
  // enables and pops: growth and shrink compactions both happen.
  core::TaskGraphBuilder builder;
  util::Rng graph_rng(5);
  for (int d = 0; d < 24; ++d) builder.add_data(1 + graph_rng.below(6) * 10);
  for (int t = 0; t < 1500; ++t) {
    std::vector<DataId> inputs;
    const auto count = 1 + graph_rng.below(3);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto data = static_cast<DataId>(graph_rng.below(24));
      if (std::find(inputs.begin(), inputs.end(), data) == inputs.end()) {
        inputs.push_back(data);
      }
    }
    builder.add_task(1.0, inputs);
  }
  const core::TaskGraph graph = builder.build();

  for (const bool track_missing : {true, false}) {
    for (const bool journaled : {true, false}) {
      for (const std::size_t window : {kDefaultReadyWindow, std::size_t{1},
                                       std::size_t{5}}) {
        for (const bool gated : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "track " << track_missing << " journal " << journaled
                       << " window " << window << " gated " << gated);
          JournalMemory memory(graph.num_data(), journaled);
          std::vector<std::uint32_t> positions(graph.num_tasks(), 0);
          ReadyIndex index;
          index.reset(graph, track_missing, window,
                      gated ? &positions : nullptr);
          std::deque<TaskId> reference;
          std::vector<std::uint8_t> enabled(graph.num_tasks(), 0);
          util::Rng rng(11);
          TaskId next = 0;
          std::uint64_t hits = 0;
          for (int step = 0; step < 6000; ++step) {
            const bool filling = (step / 700) % 2 == 0;
            const std::uint64_t op = rng.below(10);
            if (op < (filling ? 6u : 1u)) {
              if (next == graph.num_tasks()) continue;
              enabled[next] = !gated || rng.chance(0.5) ? 1 : 0;
              index.push_back(next, enabled[next] != 0);
              reference.push_back(next++);
            } else if (op < (filling ? 8u : 4u)) {
              memory.flip(static_cast<DataId>(rng.below(graph.num_data())));
              if (gated && !reference.empty()) {
                const TaskId task = reference[rng.pick_index(reference)];
                enabled[task] = 1;
                index.enable(task);
              }
            } else {
              const std::uint32_t pos = index.choose(memory);
              const TaskId got = pos == ReadyIndex::kNone ? core::kInvalidTask
                                                          : index.remove(pos);
              TaskId expected = core::kInvalidTask;
              if (track_missing) {
                expected = pop_ready(reference, graph, memory, window,
                                     gated ? &enabled : nullptr);
              } else if (gated) {
                expected = pop_first_enabled(reference, enabled);
              } else if (!reference.empty()) {
                expected = reference.front();
                reference.pop_front();
              }
              ASSERT_EQ(got, expected) << "step " << step;
              if (got != core::kInvalidTask) ++hits;
            }
          }
          EXPECT_GT(hits, 500u);
          EXPECT_EQ(index.tasks(),
                    std::vector<TaskId>(reference.begin(), reference.end()));
          EXPECT_EQ(index.size(), reference.size());
        }
      }
    }
  }
}

TEST(Dmda, BalancesIndependentTasksAcrossGpus) {
  // Tasks with disjoint data: completion-time model must spread them.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 8; ++i) {
    builder.add_task(100.0, {builder.add_data(10)});
  }
  const core::TaskGraph graph = builder.build();
  DmdaScheduler dmda(/*ready=*/false);
  dmda.prepare(graph, tiny_platform(2, 100), 0);
  EXPECT_EQ(dmda.queue(0).size(), 4u);
  EXPECT_EQ(dmda.queue(1).size(), 4u);
}

TEST(Dmda, PrefersGpuHoldingTheData) {
  // t0 and t1 share a data item; the predicted-InMem model should colocate
  // them even though gpu1 is idle (comm penalty dominates).
  core::TaskGraphBuilder builder;
  const DataId shared = builder.add_data(1000);
  builder.add_task(1.0, {shared});
  builder.add_task(1.0, {shared});
  const core::TaskGraph graph = builder.build();
  DmdaScheduler dmda(false);
  dmda.prepare(graph, tiny_platform(2, 10000), 0);
  EXPECT_EQ(dmda.queue(0).size(), 2u);
  EXPECT_TRUE(dmda.queue(1).empty());
}

TEST(Dmda, AllTasksAllocatedExactlyOnce) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 6, .data_bytes = 10});
  DmdaScheduler dmda;
  dmda.prepare(graph, tiny_platform(3, 1000), 0);
  std::vector<int> seen(graph.num_tasks(), 0);
  for (core::GpuId gpu = 0; gpu < 3; ++gpu) {
    for (TaskId task : dmda.queue(gpu)) ++seen[task];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int count) { return count == 1; }));
}

/// Minimal WorkQueueScheduler: round-robin partition in submission order.
class RoundRobinScheduler final : public WorkQueueScheduler {
 public:
  RoundRobinScheduler(bool stealing, bool ready)
      : WorkQueueScheduler(stealing, ready) {}
  [[nodiscard]] std::string_view name() const override { return "RR"; }

 protected:
  void partition(const core::TaskGraph& graph, const core::Platform& platform,
                 std::uint64_t, std::vector<std::deque<TaskId>>& queues) override {
    for (TaskId task = 0; task < graph.num_tasks(); ++task) {
      queues[task % platform.num_gpus].push_back(task);
    }
  }
};

TEST(WorkQueue, StealsHalfFromMostLoaded) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 9; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(/*stealing=*/true, /*ready=*/false);
  // Partition over 3 GPUs: 3 tasks each; drain gpu0, then it steals.
  scheduler.prepare(graph, tiny_platform(3, 100), 0);
  StubMemory memory;
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  EXPECT_EQ(scheduler.queue(0).size(), 0u);
  const TaskId stolen = scheduler.pop_task(0, memory);
  EXPECT_NE(stolen, core::kInvalidTask);
  EXPECT_EQ(scheduler.steal_events(), 1u);
  // Victim had 3; thief took floor(3/2) = 1 (then popped it).
  EXPECT_EQ(scheduler.queue(1).size() + scheduler.queue(2).size(), 5u);
}

TEST(WorkQueue, NoStealingReturnsInvalidWhenDrained) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 4; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  scheduler.prepare(graph, tiny_platform(2, 100), 0);
  StubMemory memory;
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
  EXPECT_EQ(scheduler.queue(1).size(), 2u);
}

TEST(WorkQueue, StealTakesTailPreservingOrder) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(true, false);
  scheduler.prepare(graph, tiny_platform(2, 100), 0);
  // gpu0 holds {0,2,4,6}, gpu1 holds {1,3,5,7}. Drain gpu0.
  StubMemory memory;
  for (int i = 0; i < 4; ++i) (void)scheduler.pop_task(0, memory);
  // Steal: takes tail half of gpu1 = {5,7}; next pop returns 5.
  EXPECT_EQ(scheduler.pop_task(0, memory), 5u);
  EXPECT_EQ(scheduler.pop_task(0, memory), 7u);
  EXPECT_EQ(scheduler.queue(1).size(), 2u);
}

TEST(Hmetis, EndToEndOnMatmul) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 6, .data_bytes = 10});
  HmetisScheduler scheduler;
  sim::RuntimeEngine engine(graph, tiny_platform(2, 500), scheduler);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed +
                metrics.per_gpu[1].tasks_executed,
            graph.num_tasks());
  // Partition must be roughly balanced before stealing; with stealing the
  // executed split stays within a factor.
  EXPECT_GT(metrics.per_gpu[0].tasks_executed, 0u);
  EXPECT_GT(metrics.per_gpu[1].tasks_executed, 0u);
}

/// Streamed graph for the priority tests: two 4-task jobs over one shared
/// data item, all landing on one GPU so dispatch order is the contention.
core::TaskGraph make_two_job_graph() {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {d});
  return builder.build();
}

TEST(WorkQueue, HighPriorityJobDispatchesFirstUnderContention) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does

  // ServeEngine order: every job's priority is announced before arrivals.
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 5);
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(0, job0);
  scheduler.notify_job_arrived(1, job1);

  // Job 1 queued second but outranks job 0: its tasks pop first, each job
  // internally in submission order.
  StubMemory memory;
  const std::vector<TaskId> expected = {4, 5, 6, 7, 0, 1, 2, 3};
  for (const TaskId want : expected) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
}

TEST(WorkQueue, HighPriorityArrivalPreemptsQueuedBacklog) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 9);

  StubMemory memory;
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  scheduler.notify_job_arrived(0, job0);
  EXPECT_EQ(scheduler.pop_task(0, memory), 0u);  // backlog starts draining

  // The high-priority job lands mid-stream: it jumps the remaining backlog.
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(1, job1);
  const std::vector<TaskId> expected = {4, 5, 6, 7, 1, 2, 3};
  for (const TaskId want : expected) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
}

TEST(WorkQueue, AllZeroPrioritiesKeepFifoOrder) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 0);
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(0, job0);
  scheduler.notify_job_arrived(1, job1);

  StubMemory memory;
  for (TaskId want = 0; want < 8; ++want) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
}

}  // namespace
}  // namespace mg::sched
