#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/validate.hpp"
#include "core/task_graph.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sim/trace.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::sim {
namespace {

using core::DataId;
using core::TaskId;

/// Test platform with trivial arithmetic: 1 byte transfers in 1 us (zero
/// latency), 1 flop computes in 1 us.
core::Platform test_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;                 // 1 flop = 1 us
  platform.bus_bandwidth_bytes_per_s = 1e6;   // 1 byte = 1 us
  platform.bus_latency_us = 0.0;
  return platform;
}

TEST(Engine, SingleTaskTimeline) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(20.0, {d});
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> order{{0}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  EXPECT_DOUBLE_EQ(metrics.makespan_us, 30.0);  // 10us load + 20us compute
  EXPECT_EQ(metrics.total_loads(), 1u);
  EXPECT_EQ(metrics.total_bytes_loaded(), 10u);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);
  EXPECT_DOUBLE_EQ(metrics.per_gpu[0].busy_time_us, 20.0);
}

TEST(Engine, SharedInputLoadedOnce) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(20.0, {d});
  builder.add_task(20.0, {d});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  EXPECT_EQ(metrics.total_loads(), 1u);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 50.0);  // 10 + 2*20
}

TEST(Engine, PrefetchOverlapsWithCompute) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(20.0, {d0});
  builder.add_task(20.0, {d1});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  // d0 loads [0,10], t0 runs [10,30]; d1 prefetched [10,20] during t0's
  // load... bus is FIFO so d1 actually transfers [10,20], fully hidden.
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 50.0);
}

TEST(Engine, TwoGpusShareTheBus) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(20.0, {d0});
  builder.add_task(20.0, {d1});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0}, {1}});
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  // gpu0: load [0,10], compute [10,30]; gpu1's load serializes on the bus
  // [10,20], compute [20,40].
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 40.0);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);
  EXPECT_EQ(metrics.per_gpu[1].tasks_executed, 1u);
}

TEST(Engine, EvictionHappensUnderMemoryPressure) {
  core::TaskGraphBuilder builder;
  const DataId a = builder.add_data(10);
  const DataId b = builder.add_data(10);
  const DataId c = builder.add_data(10);
  const DataId d = builder.add_data(10);
  builder.add_task(5.0, {a, b});
  builder.add_task(5.0, {a, c});
  builder.add_task(5.0, {a, d});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1, 2}});
  const core::Platform platform = test_platform(1, 20);  // 2 data fit
  RuntimeEngine engine(graph, platform, scheduler);
  Trace trace;
  engine.add_inspector(&trace);
  const core::RunMetrics metrics = engine.run();

  // a is always the most recently used; b, c are evicted in turn.
  EXPECT_EQ(metrics.total_loads(), 4u);
  EXPECT_EQ(metrics.total_evictions(), 2u);

  const auto validation =
      analysis::validate_trace(graph, platform, trace);
  EXPECT_TRUE(validation.ok) << validation.error;
}

TEST(Engine, TraceRecordsExecutionOrder) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  builder.add_task(5.0, {d0});
  builder.add_task(5.0, {d0});
  builder.add_task(5.0, {d0});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{2, 0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  Trace trace;
  engine.add_inspector(&trace);
  (void)engine.run();

  EXPECT_EQ(trace.execution_order(0), (std::vector<TaskId>{2, 0, 1}));
}

TEST(Engine, PipelineDepthOneStillCompletes) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10, .flops_per_byte = 1.0});
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.pipeline_depth = 1;
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 16u);
}

TEST(Engine, SchedulerCostAccountingStillCompletes) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10, .flops_per_byte = 1.0});
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.account_scheduler_cost = true;
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 16u);
  EXPECT_TRUE(metrics.scheduler_cost_accounted);
  EXPECT_GE(metrics.wall_makespan_us(), metrics.makespan_us);
}

TEST(Engine, StallTimeComplementsBusyTime) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(100);
  builder.add_task(5.0, {d0});
  const core::TaskGraph graph = builder.build();
  std::vector<std::vector<TaskId>> order{{0}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler);
  const core::RunMetrics metrics = engine.run();
  // 100us load, 5us compute: 100us of stall.
  EXPECT_DOUBLE_EQ(metrics.per_gpu[0].stall_time_us, 100.0);
}

/// Scheduler with a fixed order plus explicit prefetch hints.
class HintingScheduler final : public core::Scheduler {
 public:
  HintingScheduler(std::vector<TaskId> order, std::vector<DataId> hints)
      : order_(std::move(order)), hints_(std::move(hints)) {}
  [[nodiscard]] std::string_view name() const override { return "hinting"; }
  void prepare(const core::TaskGraph&, const core::Platform&,
               std::uint64_t) override {}
  [[nodiscard]] core::TaskId pop_task(core::GpuId,
                                      const core::MemoryView&) override {
    if (cursor_ >= order_.size()) return core::kInvalidTask;
    return order_[cursor_++];
  }
  [[nodiscard]] std::vector<DataId> prefetch_hints(core::GpuId) override {
    return hints_;
  }

 private:
  std::vector<TaskId> order_;
  std::vector<DataId> hints_;
  std::size_t cursor_ = 0;
};

TEST(Engine, FreeSpaceHintsPrefetchWithoutEvicting) {
  // Four data of 10 bytes, memory 40: hints for all four can prefetch into
  // free space before the tasks arrive at them.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < 4; ++i) {
    builder.add_task(100.0, {data[static_cast<std::size_t>(i)]});
  }
  const core::TaskGraph graph = builder.build();

  HintingScheduler scheduler({0, 1, 2, 3}, data);
  EngineConfig config;
  config.pipeline_depth = 1;  // no pipeline prefetch: hints do the work
  RuntimeEngine engine(graph, test_platform(1, 40), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  // All transfers [0..40us] hide under task 0's compute [10,110]; tasks
  // run back to back: makespan = 10 + 4*100.
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 410.0);
  EXPECT_EQ(metrics.total_evictions(), 0u);
}

TEST(Engine, HintsStopAtFullMemoryUnlessAllowedToEvict) {
  // Memory fits 2 of 4 data. Free-space hints prefetch only the first two;
  // with hints_may_evict they keep streaming (evicting used data).
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < 4; ++i) {
    builder.add_task(100.0, {data[static_cast<std::size_t>(i)]});
  }
  const core::TaskGraph graph = builder.build();

  auto run = [&](bool may_evict) {
    HintingScheduler scheduler({0, 1, 2, 3}, data);
    EngineConfig config;
    config.pipeline_depth = 1;
    config.hints_may_evict = may_evict;
    RuntimeEngine engine(graph, test_platform(1, 20), scheduler, config);
    return engine.run();
  };

  const core::RunMetrics conservative = run(false);
  const core::RunMetrics eager = run(true);
  EXPECT_EQ(conservative.total_loads(), 4u);
  EXPECT_EQ(eager.total_loads(), 4u);
  // Eager hints overlap the later transfers with compute; both complete.
  EXPECT_LE(eager.makespan_us, conservative.makespan_us);
  EXPECT_GE(eager.total_evictions(), 2u);
}

/// Scheduler that never yields a task: the engine must detect the deadlock.
class RefusingScheduler final : public core::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "refuse"; }
  void prepare(const core::TaskGraph&, const core::Platform&,
               std::uint64_t) override {}
  [[nodiscard]] core::TaskId pop_task(core::GpuId,
                                      const core::MemoryView&) override {
    return core::kInvalidTask;
  }
};

TEST(Engine, DetectsSchedulerDeadlock) {
  core::TaskGraphBuilder builder;
  builder.add_task(5.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();
  RefusingScheduler scheduler;
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  try {
    (void)engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& error) {
    EXPECT_NE(std::string(error.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("gpu0"), std::string::npos);
  }
}

TEST(Engine, EventBudgetExceededThrows) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_events = 3;  // far below what the run needs
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  try {
    (void)engine.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("budget exceeded"),
              std::string::npos);
  }
}

/// Records every published event.
class EventLog final : public Inspector {
 public:
  void on_event(const InspectorEvent& event) override {
    events.push_back(event);
  }
  std::vector<InspectorEvent> events;
};

// The tail is the last 32 published events, oldest first. Its bytes are
// pinned: rendering at throw time must match formatting each event as it
// was published.
TEST(Engine, EventBudgetTailHoldsTheLast32EventsOldestFirst) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {i % 2 == 0 ? d0 : d1});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_events = 12;
  RuntimeEngine engine(graph, test_platform(1, 15), scheduler, config);
  EventLog log;
  engine.add_inspector(&log);
  std::string what;
  try {
    (void)engine.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& error) {
    what = error.what();
  }
  const std::string marker = "recent events:\n";
  const std::size_t at = what.find(marker);
  ASSERT_NE(at, std::string::npos) << what;
  const std::string tail = what.substr(at + marker.size());
  ASSERT_GT(log.events.size(), 32u);  // the ring has wrapped
  std::string expected;
  for (std::size_t i = log.events.size() - 32; i < log.events.size(); ++i) {
    expected += "  " + format_inspector_event(log.events[i]) + "\n";
  }
  EXPECT_EQ(tail, expected);
  EXPECT_EQ(tail,
            "  t=45.000us gpu0 transfer-start d1 bytes=10 via host-bus\n"
            "  t=45.000us gpu0 notify-complete T2\n"
            "  t=55.000us gpu0 transfer-end d1 bytes=10 via host-bus\n"
            "  t=55.000us gpu0 load d1 bytes=10\n"
            "  t=55.000us gpu0 notify-loaded d1\n"
            "  t=55.000us gpu0 task-start T3\n"
            "  t=60.000us gpu0 task-end T3\n"
            "  t=60.000us gpu0 evict d1 bytes=10 pins=0\n"
            "  t=60.000us gpu0 notify-evicted d1\n"
            "  t=60.000us gpu0 fetch-start d0 bytes=10 (demand)\n"
            "  t=60.000us gpu0 transfer-start d0 bytes=10 via host-bus\n"
            "  t=60.000us gpu0 notify-complete T3\n"
            "  t=70.000us gpu0 transfer-end d0 bytes=10 via host-bus\n"
            "  t=70.000us gpu0 load d0 bytes=10\n"
            "  t=70.000us gpu0 notify-loaded d0\n"
            "  t=70.000us gpu0 task-start T4\n"
            "  t=75.000us gpu0 task-end T4\n"
            "  t=75.000us gpu0 evict d0 bytes=10 pins=0\n"
            "  t=75.000us gpu0 notify-evicted d0\n"
            "  t=75.000us gpu0 fetch-start d1 bytes=10 (demand)\n"
            "  t=75.000us gpu0 transfer-start d1 bytes=10 via host-bus\n"
            "  t=75.000us gpu0 notify-complete T4\n"
            "  t=85.000us gpu0 transfer-end d1 bytes=10 via host-bus\n"
            "  t=85.000us gpu0 load d1 bytes=10\n"
            "  t=85.000us gpu0 notify-loaded d1\n"
            "  t=85.000us gpu0 task-start T5\n"
            "  t=90.000us gpu0 task-end T5\n"
            "  t=90.000us gpu0 evict d1 bytes=10 pins=0\n"
            "  t=90.000us gpu0 notify-evicted d1\n"
            "  t=90.000us gpu0 fetch-start d0 bytes=10 (demand)\n"
            "  t=90.000us gpu0 transfer-start d0 bytes=10 via host-bus\n"
            "  t=90.000us gpu0 notify-complete T5\n");
}

TEST(Engine, SimTimeBudgetExceededThrows) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_sim_time_us = 12.0;  // run needs 10us load + 40us compute
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  EXPECT_THROW((void)engine.run(), BudgetExceededError);
}

TEST(Engine, BudgetsLargeEnoughDoNotFire) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_events = 100000;
  config.max_sim_time_us = 1e9;
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 15.0);
}

TEST(EngineDeathTest, RejectsOversizedTaskFootprint) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(60);
  const DataId d1 = builder.add_data(60);
  builder.add_task(5.0, {d0, d1});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EXPECT_DEATH(RuntimeEngine(graph, test_platform(1, 100), scheduler),
               "do not fit");
}

}  // namespace
}  // namespace mg::sim
