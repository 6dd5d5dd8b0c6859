#include <gtest/gtest.h>

#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/offline_model.hpp"
#include "analysis/validate.hpp"
#include "core/task_graph.hpp"
#include "sim/trace.hpp"

namespace mg::analysis {
namespace {

using core::DataId;
using core::TaskId;
using sim::Trace;
using sim::InspectorEvent;
using sim::InspectorEventKind;

/// d0, d1 of 10 bytes; t0{d0}, t1{d0,d1}.
core::TaskGraph small_graph() {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(1.0, {d0});
  builder.add_task(1.0, {d0, d1});
  return builder.build();
}

core::Platform small_platform(std::uint64_t memory = 100) {
  core::Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = memory;
  return platform;
}

Trace valid_trace() {
  Trace trace;
  trace.events = {
      {1.0, InspectorEventKind::kLoadComplete, 0, 0},  // d0
      {2.0, InspectorEventKind::kTaskStart, 0, 0},  // t0
      {3.0, InspectorEventKind::kTaskEnd, 0, 0},
      {4.0, InspectorEventKind::kLoadComplete, 0, 1},  // d1
      {5.0, InspectorEventKind::kTaskStart, 0, 1},  // t1
      {6.0, InspectorEventKind::kTaskEnd, 0, 1},
  };
  return trace;
}

TEST(Validator, AcceptsAValidTrace) {
  const auto result =
      validate_trace(small_graph(), small_platform(), valid_trace());
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Validator, RejectsDoubleLoad) {
  Trace trace = valid_trace();
  trace.events.insert(
      trace.events.begin() + 1,
      InspectorEvent{1.5, InspectorEventKind::kLoadComplete, 0, 0});
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("already-resident"), std::string::npos);
}

TEST(Validator, RejectsEvictionOfAbsentData) {
  Trace trace = valid_trace();
  trace.events.push_back({7.0, InspectorEventKind::kEvict, 0, 1});
  trace.events.push_back({8.0, InspectorEventKind::kEvict, 0, 1});
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("non-resident"), std::string::npos);
}

TEST(Validator, RejectsStartWithMissingInput) {
  Trace trace;
  trace.events = {
      {1.0, InspectorEventKind::kLoadComplete, 0, 0},
      {2.0, InspectorEventKind::kTaskStart, 0, 1},  // t1 needs d1 too
  };
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("missing input"), std::string::npos);
}

TEST(Validator, RejectsOverlappingTasksOnOneGpu) {
  Trace trace;
  trace.events = {
      {1.0, InspectorEventKind::kLoadComplete, 0, 0},
      {2.0, InspectorEventKind::kLoadComplete, 0, 1},
      {3.0, InspectorEventKind::kTaskStart, 0, 0},
      {4.0, InspectorEventKind::kTaskStart, 0, 1},  // t0 still running
  };
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("two tasks"), std::string::npos);
}

TEST(Validator, RejectsEndOfTaskNotRunning) {
  Trace trace;
  trace.events = {{1.0, InspectorEventKind::kTaskEnd, 0, 0}};
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("was not running"), std::string::npos);
}

TEST(Validator, RejectsMemoryBoundViolation) {
  Trace trace = valid_trace();  // holds both 10-byte data at once
  const auto result =
      validate_trace(small_graph(), small_platform(/*memory=*/15), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("memory bound"), std::string::npos);
}

TEST(Validator, RejectsMissingExecution) {
  Trace trace = valid_trace();
  trace.events.resize(3);  // only t0 ran
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("executed 0 times"), std::string::npos);
}

TEST(Validator, RejectsTimeGoingBackwards) {
  Trace trace = valid_trace();
  trace.events[1].time_us = 0.5;
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("backwards"), std::string::npos);
}

TEST(Validator, RejectsUnknownGpu) {
  Trace trace;
  trace.events = {{1.0, InspectorEventKind::kLoadComplete, 7, 0}};
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown gpu"), std::string::npos);
}

TEST(Validator, PeerLoadAddsResidency) {
  Trace trace = valid_trace();
  trace.events[3].aux = 1;  // d1 arrives via NVLink
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Validator, WriteBackEventsAreNeutral) {
  Trace trace = valid_trace();
  trace.events.push_back({7.0, InspectorEventKind::kWriteBackEnd, 0, 1});
  const auto result =
      validate_trace(small_graph(), small_platform(), trace);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(TraceHelpers, ExecutionOrderFiltersByGpu) {
  Trace trace;
  trace.events = {
      {1.0, InspectorEventKind::kTaskStart, 0, 5},
      {2.0, InspectorEventKind::kTaskStart, 1, 7},
      {3.0, InspectorEventKind::kTaskEnd, 0, 5},
      {4.0, InspectorEventKind::kTaskStart, 0, 6},
  };
  EXPECT_EQ(trace.execution_order(0), (std::vector<TaskId>{5, 6}));
  EXPECT_EQ(trace.execution_order(1), (std::vector<TaskId>{7}));
}

TEST(PipelinedLru, MatchesPlainLruOnNormalInstances) {
  // The previous task's inputs always carry the newest stamps, so plain LRU
  // never chooses them anyway: the two modes agree except in the
  // all-protected edge case below.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 5; ++i) data.push_back(builder.add_data(1));
  builder.add_task(1.0, {data[0]});
  builder.add_task(1.0, {data[1]});
  builder.add_task(1.0, {data[2]});
  builder.add_task(1.0, {data[0], data[3]});
  builder.add_task(1.0, {data[4], data[1]});
  const core::TaskGraph graph = builder.build();

  const Schedule schedule{{0, 1, 2, 3, 4}};
  for (std::uint64_t memory : {2, 3, 4}) {
    const auto plain =
        replay_schedule(graph, schedule, memory, ReplayEviction::kLru);
    const auto pipelined = replay_schedule(graph, schedule, memory,
                                           ReplayEviction::kLruPipelined);
    EXPECT_EQ(plain.total_loads, pipelined.total_loads) << "M=" << memory;
  }
}

TEST(PipelinedLru, FallsBackWhenEverythingIsProtected) {
  // Memory 3: at task t1, the resident set is exactly prev(t0) + cur(t1)
  // inputs; pipelined mode must fall back to plain LRU instead of aborting.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(1);
  const DataId d1 = builder.add_data(1);
  const DataId d2 = builder.add_data(1);
  const DataId d3 = builder.add_data(1);
  builder.add_task(1.0, {d0, d1});
  builder.add_task(1.0, {d2, d3});
  const core::TaskGraph graph = builder.build();

  const Schedule schedule{{0, 1}};
  const auto pipelined =
      replay_schedule(graph, schedule, 3, ReplayEviction::kLruPipelined);
  EXPECT_EQ(pipelined.total_loads, 4u);
}

TEST(Bounds, ThresholdsScaleWithGpuCountAndMemory) {
  core::Platform platform = core::make_v100_platform(4, 250 * core::kMB);
  EXPECT_EQ(threshold_both_matrices_fit(platform), 1000 * core::kMB);
  EXPECT_EQ(threshold_one_matrix_fits(platform), 2000 * core::kMB);
  EXPECT_DOUBLE_EQ(gflops_max(platform), 4 * 13253.0);
}

}  // namespace
}  // namespace mg::analysis
