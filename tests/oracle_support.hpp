// Shared machinery of the decision-identity oracles (test_darts_oracle.cpp,
// test_dmdar_oracle.cpp). A case runs one scheduler on one input and reduces
// the run to two digests:
//   * the (gpu, task) sequence of every pop_task call, including empty pops;
//   * the serialized run report (run_report_to_json), which covers loads,
//     evictions, timings and every per-section counter.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/task_graph.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "workloads/workloads.hpp"

namespace mg::oracle {

using core::DataId;
using core::GpuId;
using core::MemoryView;
using core::NodeId;
using core::Scheduler;
using core::TaskGraph;
using core::TaskId;

struct Fnv {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void add(const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
};

inline std::uint64_t digest_of(const std::string& text) {
  Fnv fnv;
  fnv.add(text);
  return fnv.hash;
}

/// Forwards every Scheduler hook to `inner` unchanged and digests the
/// (gpu, task) result of each pop_task call.
class PopRecorder final : public Scheduler {
 public:
  explicit PopRecorder(Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::uint64_t pops() const { return pops_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_.hash; }

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void prepare(const TaskGraph& graph, const core::Platform& platform,
               std::uint64_t seed) override {
    inner_.prepare(graph, platform, seed);
  }
  [[nodiscard]] TaskId pop_task(GpuId gpu, const MemoryView& memory) override {
    const TaskId task = inner_.pop_task(gpu, memory);
    ++pops_;
    digest_.add(gpu);
    digest_.add(task);
    return task;
  }
  [[nodiscard]] bool begin_streaming() override {
    return inner_.begin_streaming();
  }
  void notify_job_arrived(std::uint32_t job,
                          std::span<const TaskId> tasks) override {
    inner_.notify_job_arrived(job, tasks);
  }
  [[nodiscard]] bool begin_dependencies() override {
    return inner_.begin_dependencies();
  }
  void notify_task_retired(TaskId task,
                           std::span<const TaskId> enabled) override {
    inner_.notify_task_retired(task, enabled);
  }
  void notify_job_priority(std::uint32_t job, std::uint32_t priority) override {
    inner_.notify_job_priority(job, priority);
  }
  void notify_job_retired(std::uint32_t job) override {
    inner_.notify_job_retired(job);
  }
  void notify_task_complete(GpuId gpu, TaskId task) override {
    inner_.notify_task_complete(gpu, task);
  }
  void notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override {
    inner_.notify_occupancy(gpu, active_warps, free_warps);
  }
  void notify_data_loaded(GpuId gpu, DataId data) override {
    inner_.notify_data_loaded(gpu, data);
  }
  void notify_data_evicted(GpuId gpu, DataId data) override {
    inner_.notify_data_evicted(gpu, data);
  }
  [[nodiscard]] bool notify_gpu_lost(GpuId gpu,
                                     std::span<const TaskId> orphaned) override {
    return inner_.notify_gpu_lost(gpu, orphaned);
  }
  [[nodiscard]] bool notify_node_draining(
      NodeId node, std::span<const GpuId> gpus,
      std::span<const TaskId> orphaned) override {
    return inner_.notify_node_draining(node, gpus, orphaned);
  }
  void notify_node_added(NodeId node, std::span<const GpuId> gpus) override {
    inner_.notify_node_added(node, gpus);
  }
  [[nodiscard]] bool notify_node_lost(NodeId node, std::span<const GpuId> gpus,
                                      std::span<const TaskId> orphaned) override {
    return inner_.notify_node_lost(node, gpus, orphaned);
  }
  void notify_node_suspected(NodeId node) override {
    inner_.notify_node_suspected(node);
  }
  void notify_node_suspicion_cleared(NodeId node) override {
    inner_.notify_node_suspicion_cleared(node);
  }
  [[nodiscard]] std::optional<ReplayDivergence> replay_divergence(
      GpuId gpu) override {
    return inner_.replay_divergence(gpu);
  }
  [[nodiscard]] std::vector<DataId> prefetch_hints(GpuId gpu) override {
    return inner_.prefetch_hints(gpu);
  }
  [[nodiscard]] core::EvictionPolicy* eviction_policy(GpuId gpu) override {
    return inner_.eviction_policy(gpu);
  }

 private:
  Scheduler& inner_;
  std::uint64_t pops_ = 0;
  Fnv digest_;
};

struct Outcome {
  std::uint64_t pops = 0;
  std::uint64_t pop_digest = 0;
  std::uint64_t report_digest = 0;
};

/// Knobs of a batch (RuntimeEngine) case beyond graph and platform.
struct BatchSetup {
  sim::EngineConfig config;
  std::optional<sim::FaultPlan> faults;
  /// Called once the engine exists (schedules drains, joins, ...).
  std::function<void(sim::RuntimeEngine&)> arm;
};

/// Runs `scheduler` on `graph` under the invariant checker; `context` is the
/// run report's context string, so it is part of the report digest.
inline Outcome run_batch(const char* context, const TaskGraph& graph,
                         const core::Platform& platform, Scheduler& scheduler,
                         const BatchSetup& setup = {}) {
  PopRecorder recorder(scheduler);
  sim::RuntimeEngine engine(graph, platform, recorder, setup.config);
  std::optional<sim::FaultInjector> injector;
  if (setup.faults.has_value()) {
    engine.set_fault_injector(&injector.emplace(*setup.faults));
  }
  if (setup.arm) setup.arm(engine);
  sim::InvariantChecker checker({.fail_fast = false});
  sim::RunReportCollector collector(
      {.context = context, .collect_trace = false});
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  (void)engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return {recorder.pops(), recorder.digest(),
          digest_of(sim::run_report_to_json(collector.report()))};
}

/// Tiered, batched streaming on two nodes: the union graph shares each
/// template data across every job, and half the jobs carry priority 1.
inline Outcome run_serving(const char* context, Scheduler& scheduler) {
  const std::vector<TaskGraph> templates = {work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(48);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].priority = static_cast<std::uint32_t>((j * 7 / 3) % 2);
  }
  core::Platform platform = core::make_v100_platform(4, 120 * core::kMB);
  platform.num_nodes = 2;
  platform.host_memory_bytes = 60 * core::kMB;
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 400.0;
  config.arrival.seed = 5;
  config.admission.max_jobs_in_flight = 6;
  config.engine.seed = 5;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1, .deadline_us = 40e3, .admission_weight = 4}}};
  config.slo.batching = true;
  config.slo.max_batch = 3;
  config.slo.marginal_compute = 0.4;

  PopRecorder recorder(scheduler);
  serve::ServeEngine engine(templates, jobs, platform, recorder, config);
  sim::InvariantChecker checker({.fail_fast = false});
  sim::RunReportCollector collector(
      {.context = context, .collect_trace = false});
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  const serve::ServeResult result = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  EXPECT_EQ(result.serving.jobs_completed + result.serving.jobs_shed,
            jobs.size());
  sim::RunReport report = collector.report();
  report.serving = result.serving;
  report.slo.enabled = result.slo.enabled;
  report.slo.tiers = result.slo.tiers;
  report.slo.per_tier = result.slo.per_tier;
  return {recorder.pops(), recorder.digest(),
          digest_of(sim::run_report_to_json(report))};
}

/// Polls until the drain has retired `node`, then starts its join.
inline void rejoin_when_drained(sim::RuntimeEngine& engine, NodeId node) {
  if (engine.node_status(node) == sim::RuntimeEngine::NodeStatus::kInactive) {
    engine.begin_node_join(node);
    return;
  }
  engine.event_queue().schedule_at(
      engine.event_queue().now() + 500.0,
      [&engine, node] { rejoin_when_drained(engine, node); });
}

}  // namespace mg::oracle
