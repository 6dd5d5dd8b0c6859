#include "decorators.hpp"

#include <cstdio>

namespace perfbench {

using mg::core::DataId;
using mg::core::GpuId;
using mg::core::NodeId;
using mg::core::TaskId;

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", span.name, span.start_s * 1e6,
                 span.seconds() * 1e6, i, span.parent);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

// ---- TracedEviction ---------------------------------------------------------

void TracedEviction::on_load(GpuId gpu, DataId data) {
  const TallyScope scope(stats_.hooks);
  inner_.on_load(gpu, data);
}

void TracedEviction::on_use(GpuId gpu, DataId data) {
  const TallyScope scope(stats_.hooks);
  inner_.on_use(gpu, data);
}

void TracedEviction::on_evict(GpuId gpu, DataId data) {
  const TallyScope scope(stats_.hooks);
  inner_.on_evict(gpu, data);
}

DataId TracedEviction::choose_victim(GpuId gpu,
                                     std::span<const DataId> candidates) {
  DataId victim;
  {
    const ScopedSpan span(tracer_, kSpanChooseVictim);
    victim = inner_.choose_victim(gpu, candidates);
  }
  ++stats_.choices;
  stats_.candidates += candidates.size();
  if (victim == mg::core::kInvalidData) ++stats_.refusals;
  return victim;
}

// ---- TracedScheduler --------------------------------------------------------

void TracedScheduler::prepare(const mg::core::TaskGraph& graph,
                              const mg::core::Platform& platform,
                              std::uint64_t seed) {
  num_gpus_ = platform.num_gpus;
  num_data_ = graph.num_data();
  evictions_.clear();
  evictions_.resize(num_gpus_);
  default_lru_.reset();
  const ScopedSpan span(tracer_, kSpanPrepare);
  inner_.prepare(graph, platform, seed);
}

TaskId TracedScheduler::pop_task(GpuId gpu,
                                 const mg::core::MemoryView& memory) {
  TaskId task;
  {
    const ScopedSpan span(tracer_, kSpanPop);
    task = inner_.pop_task(gpu, memory);
  }
  ++stats_.pops;
  if (task != mg::core::kInvalidTask) ++stats_.pop_hits;
  return task;
}

bool TracedScheduler::begin_streaming() {
  const TallyScope scope(stats_.notify);
  return inner_.begin_streaming();
}

void TracedScheduler::notify_job_arrived(std::uint32_t job,
                                         std::span<const TaskId> tasks) {
  const TallyScope scope(stats_.notify);
  inner_.notify_job_arrived(job, tasks);
}

bool TracedScheduler::begin_dependencies() {
  const TallyScope scope(stats_.notify);
  return inner_.begin_dependencies();
}

void TracedScheduler::notify_task_retired(
    TaskId task, std::span<const TaskId> enabled_successors) {
  const TallyScope scope(stats_.notify);
  inner_.notify_task_retired(task, enabled_successors);
}

void TracedScheduler::notify_job_priority(std::uint32_t job,
                                          std::uint32_t priority) {
  const TallyScope scope(stats_.notify);
  inner_.notify_job_priority(job, priority);
}

void TracedScheduler::notify_job_retired(std::uint32_t job) {
  const TallyScope scope(stats_.notify);
  inner_.notify_job_retired(job);
}

void TracedScheduler::notify_task_complete(GpuId gpu, TaskId task) {
  const TallyScope scope(stats_.notify);
  inner_.notify_task_complete(gpu, task);
}

void TracedScheduler::notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                                       std::uint32_t free_warps) {
  const TallyScope scope(stats_.notify);
  inner_.notify_occupancy(gpu, active_warps, free_warps);
}

void TracedScheduler::notify_data_loaded(GpuId gpu, DataId data) {
  const TallyScope scope(stats_.notify);
  inner_.notify_data_loaded(gpu, data);
}

void TracedScheduler::notify_data_evicted(GpuId gpu, DataId data) {
  const TallyScope scope(stats_.notify);
  inner_.notify_data_evicted(gpu, data);
}

bool TracedScheduler::notify_gpu_lost(GpuId gpu,
                                      std::span<const TaskId> orphaned) {
  const TallyScope scope(stats_.notify);
  return inner_.notify_gpu_lost(gpu, orphaned);
}

bool TracedScheduler::notify_node_draining(NodeId node,
                                           std::span<const GpuId> gpus,
                                           std::span<const TaskId> orphaned) {
  const TallyScope scope(stats_.notify);
  return inner_.notify_node_draining(node, gpus, orphaned);
}

void TracedScheduler::notify_node_added(NodeId node,
                                        std::span<const GpuId> gpus) {
  const TallyScope scope(stats_.notify);
  inner_.notify_node_added(node, gpus);
}

bool TracedScheduler::notify_node_lost(NodeId node, std::span<const GpuId> gpus,
                                       std::span<const TaskId> orphaned) {
  // Forwarded whole: the inner default fans out to its own notify_gpu_lost.
  const TallyScope scope(stats_.notify);
  return inner_.notify_node_lost(node, gpus, orphaned);
}

void TracedScheduler::notify_node_suspected(NodeId node) {
  const TallyScope scope(stats_.notify);
  inner_.notify_node_suspected(node);
}

void TracedScheduler::notify_node_suspicion_cleared(NodeId node) {
  const TallyScope scope(stats_.notify);
  inner_.notify_node_suspicion_cleared(node);
}

std::optional<mg::core::Scheduler::ReplayDivergence>
TracedScheduler::replay_divergence(GpuId gpu) {
  const TallyScope scope(stats_.notify);
  return inner_.replay_divergence(gpu);
}

std::vector<DataId> TracedScheduler::prefetch_hints(GpuId gpu) {
  const TallyScope scope(stats_.notify);
  return inner_.prefetch_hints(gpu);
}

mg::core::EvictionPolicy* TracedScheduler::eviction_policy(GpuId gpu) {
  std::unique_ptr<TracedEviction>& wrapper = evictions_[gpu];
  if (wrapper == nullptr) {
    mg::core::EvictionPolicy* policy = inner_.eviction_policy(gpu);
    if (policy == nullptr) {
      if (default_lru_ == nullptr) {
        default_lru_ =
            std::make_unique<mg::sim::LruEviction>(num_gpus_, num_data_);
      }
      policy = default_lru_.get();
    }
    wrapper = std::make_unique<TracedEviction>(*policy, tracer_,
                                               eviction_stats_);
  }
  return wrapper.get();
}

// ---- TracedInspector --------------------------------------------------------

void TracedInspector::on_run_begin(const mg::core::TaskGraph& graph,
                                   const mg::core::Platform& platform,
                                   std::string_view scheduler_name) {
  const TallyScope scope(tally_);
  inner_.on_run_begin(graph, platform, scheduler_name);
}

void TracedInspector::on_eviction_policy(GpuId gpu,
                                         std::string_view policy_name) {
  const TallyScope scope(tally_);
  inner_.on_eviction_policy(gpu, policy_name);
}

void TracedInspector::on_event(const mg::sim::InspectorEvent& event) {
  const TallyScope scope(tally_);
  ++events_;
  inner_.on_event(event);
}

void TracedInspector::on_run_end(double makespan_us) {
  const TallyScope scope(tally_);
  inner_.on_run_end(makespan_us);
}

}  // namespace perfbench
