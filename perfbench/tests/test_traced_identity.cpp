// The decorators must be invisible to the simulation: a traced pass of
// every workload has to produce byte-identical run_report_to_json output
// (and identical simulated outcomes) to an untraced pass with the same
// seed. A Scheduler hook added later and left unforwarded by
// TracedScheduler changes some decision and fails here.
//
// A second check drives every Scheduler hook through the decorator and
// asserts the inner scheduler saw each one.
//
//   perfbench_test            (registered with ctest)
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "decorators.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void check_workload(const std::string& name) {
  constexpr std::uint64_t kSeed = 7;
  const perfbench::PassResult plain =
      perfbench::run_pass(name, kSeed, {.collect_reports = true});
  perfbench::Tracer tracer;
  const perfbench::PassResult traced =
      perfbench::run_pass(name, kSeed, {.tracer = &tracer});
  expect(plain.runs.size() == traced.runs.size(), name + ": run count");
  for (std::size_t i = 0; i < plain.runs.size() && i < traced.runs.size();
       ++i) {
    const perfbench::RunRecord& a = plain.runs[i];
    const perfbench::RunRecord& b = traced.runs[i];
    expect(!a.failed, a.label + " untraced: " + a.error);
    expect(!b.failed, b.label + " traced: " + b.error);
    expect(!a.report_json.empty(), a.label + ": report collected");
    expect(a.report_json == b.report_json,
           a.label + ": traced run report differs from untraced");
    expect(a.sim == b.sim, a.label + ": simulated outcome differs");
    expect(b.layers.sched.pops > 0, b.label + ": pops traced");
  }
  expect(!tracer.spans().empty(), name + ": spans recorded");
  std::printf("%-16s %zu runs compared\n", name.c_str(), plain.runs.size());
}

class EmptyMemory final : public mg::core::MemoryView {
 public:
  bool is_present(mg::core::DataId) const override { return false; }
  bool is_present_or_fetching(mg::core::DataId) const override { return false; }
  std::uint64_t capacity_bytes() const override { return mg::core::kMB; }
  std::uint64_t used_bytes() const override { return 0; }
};

/// Records every callback that reaches it.
class ProbeEviction final : public mg::core::EvictionPolicy {
 public:
  std::set<std::string> seen;

  std::string_view name() const override { return "probe-policy"; }
  void on_load(mg::core::GpuId, mg::core::DataId) override {
    seen.insert("on_load");
  }
  void on_use(mg::core::GpuId, mg::core::DataId) override {
    seen.insert("on_use");
  }
  void on_evict(mg::core::GpuId, mg::core::DataId) override {
    seen.insert("on_evict");
  }
  mg::core::DataId choose_victim(
      mg::core::GpuId, std::span<const mg::core::DataId> candidates) override {
    seen.insert("choose_victim");
    return candidates.back();
  }
};

class ProbeInspector final : public mg::sim::Inspector {
 public:
  std::set<std::string> seen;

  void on_run_begin(const mg::core::TaskGraph&, const mg::core::Platform&,
                    std::string_view) override {
    seen.insert("on_run_begin");
  }
  void on_eviction_policy(mg::core::GpuId, std::string_view) override {
    seen.insert("on_eviction_policy");
  }
  void on_event(const mg::sim::InspectorEvent&) override {
    seen.insert("on_event");
  }
  void on_run_end(double) override { seen.insert("on_run_end"); }
};

/// Records every hook that reaches it; GPU 1 has its own eviction policy.
class ProbeScheduler final : public mg::core::Scheduler {
 public:
  std::set<std::string> seen;

  std::string_view name() const override { return "probe"; }
  void prepare(const mg::core::TaskGraph&, const mg::core::Platform&,
               std::uint64_t) override {
    seen.insert("prepare");
  }
  mg::core::TaskId pop_task(mg::core::GpuId,
                            const mg::core::MemoryView&) override {
    seen.insert("pop_task");
    return mg::core::kInvalidTask;
  }
  bool begin_streaming() override { return seen.insert("begin_streaming").second; }
  void notify_job_arrived(std::uint32_t, std::span<const mg::core::TaskId>) override {
    seen.insert("notify_job_arrived");
  }
  bool begin_dependencies() override {
    return seen.insert("begin_dependencies").second;
  }
  void notify_task_retired(mg::core::TaskId,
                           std::span<const mg::core::TaskId>) override {
    seen.insert("notify_task_retired");
  }
  void notify_job_priority(std::uint32_t, std::uint32_t) override {
    seen.insert("notify_job_priority");
  }
  void notify_job_retired(std::uint32_t) override {
    seen.insert("notify_job_retired");
  }
  void notify_task_complete(mg::core::GpuId, mg::core::TaskId) override {
    seen.insert("notify_task_complete");
  }
  void notify_occupancy(mg::core::GpuId, std::uint32_t, std::uint32_t) override {
    seen.insert("notify_occupancy");
  }
  void notify_data_loaded(mg::core::GpuId, mg::core::DataId) override {
    seen.insert("notify_data_loaded");
  }
  void notify_data_evicted(mg::core::GpuId, mg::core::DataId) override {
    seen.insert("notify_data_evicted");
  }
  bool notify_gpu_lost(mg::core::GpuId, std::span<const mg::core::TaskId>) override {
    return seen.insert("notify_gpu_lost").second;
  }
  bool notify_node_draining(mg::core::NodeId, std::span<const mg::core::GpuId>,
                            std::span<const mg::core::TaskId>) override {
    return seen.insert("notify_node_draining").second;
  }
  void notify_node_added(mg::core::NodeId,
                         std::span<const mg::core::GpuId>) override {
    seen.insert("notify_node_added");
  }
  bool notify_node_lost(mg::core::NodeId, std::span<const mg::core::GpuId>,
                        std::span<const mg::core::TaskId>) override {
    return seen.insert("notify_node_lost").second;
  }
  void notify_node_suspected(mg::core::NodeId) override {
    seen.insert("notify_node_suspected");
  }
  void notify_node_suspicion_cleared(mg::core::NodeId) override {
    seen.insert("notify_node_suspicion_cleared");
  }
  std::optional<ReplayDivergence> replay_divergence(mg::core::GpuId) override {
    seen.insert("replay_divergence");
    return ReplayDivergence{.divergence_index = 3, .reassigned_tasks = 5};
  }
  std::vector<mg::core::DataId> prefetch_hints(mg::core::GpuId) override {
    seen.insert("prefetch_hints");
    return {4, 2};
  }
  mg::core::EvictionPolicy* eviction_policy(mg::core::GpuId gpu) override {
    seen.insert("eviction_policy");
    return gpu == 1 ? &policy : nullptr;
  }

  ProbeEviction policy;
};

void check_forwarding() {
  mg::core::TaskGraphBuilder builder;
  const mg::core::DataId data = builder.add_data(mg::core::kMB);
  builder.add_task(1e9, {data});
  const mg::core::TaskGraph graph = builder.build();
  const mg::core::Platform platform = mg::core::make_v100_platform(2);

  ProbeScheduler probe;
  perfbench::Tracer tracer;
  perfbench::TracedScheduler traced(probe, tracer);
  const std::vector<mg::core::TaskId> tasks = {0};
  const std::vector<mg::core::GpuId> gpus = {0, 1};
  traced.prepare(graph, platform, 1);
  const EmptyMemory memory;
  (void)traced.pop_task(0, memory);
  expect(traced.begin_streaming(), "begin_streaming result forwarded");
  traced.notify_job_arrived(0, tasks);
  expect(traced.begin_dependencies(), "begin_dependencies result forwarded");
  traced.notify_task_retired(0, tasks);
  traced.notify_job_priority(0, 1);
  traced.notify_job_retired(0);
  traced.notify_task_complete(0, 0);
  traced.notify_occupancy(0, 1, 2);
  traced.notify_data_loaded(0, data);
  traced.notify_data_evicted(0, data);
  expect(traced.notify_gpu_lost(0, tasks), "notify_gpu_lost result forwarded");
  expect(traced.notify_node_draining(0, gpus, tasks),
         "notify_node_draining result forwarded");
  traced.notify_node_added(0, gpus);
  expect(traced.notify_node_lost(0, gpus, tasks),
         "notify_node_lost result forwarded");
  traced.notify_node_suspected(0);
  traced.notify_node_suspicion_cleared(0);
  const auto divergence = traced.replay_divergence(0);
  expect(divergence.has_value() && divergence->divergence_index == 3 &&
             divergence->reassigned_tasks == 5,
         "replay_divergence result forwarded");
  expect(traced.prefetch_hints(0) == std::vector<mg::core::DataId>{4, 2},
         "prefetch_hints result forwarded");
  mg::core::EvictionPolicy* lru = traced.eviction_policy(0);
  expect(lru != nullptr && lru->name() == "LRU",
         "a nullptr policy is stood in by LRU");
  expect(probe.seen.size() == 21, "every hook reached the inner scheduler (" +
                                      std::to_string(probe.seen.size()) +
                                      " of 21)");
  expect(traced.name() == "probe", "name forwarded");

  mg::core::EvictionPolicy* own = traced.eviction_policy(1);
  expect(own != lru && own->name() == "probe-policy",
         "a scheduler's own policy is wrapped per GPU");
  own->on_load(1, data);
  own->on_use(1, data);
  own->on_evict(1, data);
  const std::vector<mg::core::DataId> candidates = {0, 7};
  expect(own->choose_victim(1, candidates) == 7, "choose_victim forwarded");
  expect(probe.policy.seen.size() == 4, "every policy callback forwarded");
  expect(traced.eviction_stats().choices == 1 &&
             traced.eviction_stats().candidates == 2 &&
             traced.eviction_stats().hooks.calls == 3,
         "eviction statistics");

  ProbeInspector inspector;
  perfbench::TracedInspector traced_inspector(inspector);
  traced_inspector.on_run_begin(graph, platform, "probe");
  traced_inspector.on_eviction_policy(0, "LRU");
  traced_inspector.on_event({});
  traced_inspector.on_run_end(1.0);
  expect(inspector.seen.size() == 4, "every inspector callback forwarded");
  expect(traced_inspector.events() == 1 && traced_inspector.tally().calls == 4,
         "inspector statistics");
}

}  // namespace

int main() {
  check_forwarding();
  for (const std::string& name : perfbench::workload_names()) {
    check_workload(name);
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
