#include "sched/dmda.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace mg::sched {

void DmdaScheduler::prepare(const core::TaskGraph& graph,
                            const core::Platform& platform,
                            std::uint64_t seed) {
  (void)seed;  // DMDA is deterministic
  graph_ = &graph;
  platform_ = &platform;
  const std::uint32_t num_gpus = platform.num_gpus;
  dead_.assign(num_gpus, 0);
  occ_hinted_ = false;
  occ_active_warps_.assign(num_gpus, 0);
  occ_free_warps_.assign(num_gpus, 0);

  // Predicted memory content and predicted finish time per GPU. In streaming
  // mode the model persists across arrivals; in batch mode it only lives for
  // this loop.
  in_mem_.assign(num_gpus, std::vector<bool>(graph.num_data(), false));
  finish_us_.assign(num_gpus, 0.0);

  if (deps_) {
    // Pops are gated on the enabled bitmap; the initial frontier is every
    // task without predecessors. Later enablements arrive through
    // notify_task_retired.
    enabled_.assign(graph.num_tasks(), 0);
    queue_of_.assign(graph.num_tasks(), core::kInvalidGpu);
    position_.assign(graph.num_tasks(), 0);
    if (!streaming_) {
      for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
        if (graph.num_predecessors(task) == 0) enabled_[task] = 1;
      }
    }
  } else {
    enabled_.clear();
    queue_of_.clear();
    position_.clear();
  }
  queues_.assign(num_gpus, {});
  for (ReadyIndex& queue : queues_) {
    queue.reset(graph, ready_, ready_window_, deps_ ? &position_ : nullptr);
  }

  if (streaming_) return;  // tasks are allocated as their jobs arrive
  for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
    allocate(task);
  }
}

void DmdaScheduler::allocate(core::TaskId task) {
  const core::TaskGraph& graph = *graph_;
  const core::Platform& platform = *platform_;
  core::GpuId best_gpu = core::kInvalidGpu;
  double best_completion = 0.0;
  for (core::GpuId gpu = 0; gpu < queues_.size(); ++gpu) {
    if (dead_[gpu] != 0) continue;
    // Per-device compute time: this is where DMDA handles heterogeneous
    // processing units.
    const double comp = platform.compute_time_us(graph.task_flops(task), gpu);
    double comm = 0.0;
    for (core::DataId data : graph.inputs(task)) {
      if (!in_mem_[gpu][data]) {
        comm += platform.transfer_time_us(graph.data_size(data));
      }
    }
    const double completion = finish_us_[gpu] + comm + comp;
    if (best_gpu == core::kInvalidGpu || completion < best_completion) {
      best_completion = completion;
      best_gpu = gpu;
    }
  }
  MG_CHECK_MSG(best_gpu != core::kInvalidGpu, "no surviving GPU to allocate to");
  enqueue(best_gpu, task);
  // Only compute occupies the worker: transfers are overlapped with the
  // execution of earlier tasks (StarPU's dm/dmda model). Keeping comm out
  // of the backlog is what lets the model colocate data-sharing tasks.
  finish_us_[best_gpu] +=
      platform.compute_time_us(graph.task_flops(task), best_gpu);
  for (core::DataId data : graph.inputs(task)) in_mem_[best_gpu][data] = true;
}

void DmdaScheduler::enqueue(core::GpuId gpu, core::TaskId task) {
  if (deps_) queue_of_[task] = gpu;
  queues_[gpu].push_back(task, !deps_ || enabled_[task] != 0);
}

void DmdaScheduler::notify_job_arrived(std::uint32_t job,
                                       std::span<const core::TaskId> tasks) {
  (void)job;
  // On a dependency-gated stream the engine hands over only the job's
  // initially-enabled tasks; the rest arrive via notify_task_retired.
  for (core::TaskId task : tasks) {
    if (deps_) enabled_[task] = 1;
    allocate(task);
  }
}

void DmdaScheduler::notify_task_retired(
    core::TaskId task, std::span<const core::TaskId> enabled_successors) {
  (void)task;
  for (core::TaskId succ : enabled_successors) {
    enabled_[succ] = 1;
    // Batch mode allocated the whole graph in prepare; a streamed task that
    // was dependency-blocked at its job's arrival is placed now.
    if (const core::GpuId gpu = queue_of_[succ]; gpu != core::kInvalidGpu) {
      queues_[gpu].enable(succ);
    } else if (streaming_) {
      allocate(succ);
    }
  }
}

std::vector<core::DataId> DmdaScheduler::prefetch_hints(core::GpuId gpu) {
  if (!push_prefetch_) return {};
  std::vector<core::DataId> hints;
  std::vector<bool> seen(graph_->num_data(), false);
  queues_[gpu].find_in_order([&](std::uint32_t, core::TaskId task) {
    for (core::DataId data : graph_->inputs(task)) {
      if (!seen[data]) {
        seen[data] = true;
        hints.push_back(data);
      }
    }
    return false;
  });
  return hints;
}

bool DmdaScheduler::notify_gpu_lost(core::GpuId gpu,
                                    std::span<const core::TaskId> orphaned) {
  dead_[gpu] = 1;

  // Orphans first (they were next to run), then the unpopped remainder.
  std::vector<core::TaskId> displaced(orphaned.begin(), orphaned.end());
  const std::vector<core::TaskId> unpopped = queues_[gpu].take_all();
  displaced.insert(displaced.end(), unpopped.begin(), unpopped.end());

  bool any_survivor = false;
  for (core::GpuId other = 0; other < queues_.size(); ++other) {
    if (other != gpu && dead_[other] == 0) any_survivor = true;
  }
  if (!any_survivor) return false;  // engine handles the orphans

  for (core::TaskId task : displaced) {
    core::GpuId target = core::kInvalidGpu;
    std::size_t least = ~std::size_t{0};
    for (core::GpuId other = 0; other < queues_.size(); ++other) {
      if (other == gpu || dead_[other] != 0) continue;
      if (queues_[other].size() < least) {
        least = queues_[other].size();
        target = other;
      }
    }
    enqueue(target, task);
  }
  return true;
}

void DmdaScheduler::notify_occupancy(core::GpuId gpu,
                                     std::uint32_t active_warps,
                                     std::uint32_t free_warps) {
  occ_hinted_ = true;
  occ_active_warps_[gpu] = active_warps;
  occ_free_warps_[gpu] = free_warps;
}

core::TaskId DmdaScheduler::pop_task(core::GpuId gpu,
                                     const core::MemoryView& memory) {
  ReadyIndex& queue = queues_[gpu];
  if (queue.empty()) return core::kInvalidTask;
  // Sharing mode, GPU partially busy: prefer a queued task that fits the
  // free warps so it co-runs instead of blocking at admission.
  if (occ_hinted_ && occ_active_warps_[gpu] > 0) {
    const std::uint32_t free = occ_free_warps_[gpu];
    const std::size_t window = std::min(queue.size(), ready_window_);
    std::size_t seen = 0;
    std::uint32_t fit = ReadyIndex::kNone;
    queue.find_in_order([&](std::uint32_t pos, core::TaskId task) {
      if (seen++ == window) return true;
      if (deps_ && enabled_[task] == 0) return false;
      const std::uint32_t warps = graph_->task_warps(task);
      if (warps == 0 || warps > free) return false;
      fit = pos;
      return true;
    });
    if (fit != ReadyIndex::kNone) return queue.remove(fit);
  }
  const std::uint32_t pos = queue.choose(memory);
  const core::TaskId task =
      pos == ReadyIndex::kNone ? core::kInvalidTask : queue.at(pos);
  MG_DCHECK(task == scan_choice(gpu, memory));
  return task == core::kInvalidTask ? task : queue.remove(pos);
}

core::TaskId DmdaScheduler::scan_choice(core::GpuId gpu,
                                        const core::MemoryView& memory) const {
  const std::vector<core::TaskId> tasks = queues_[gpu].tasks();
  std::deque<core::TaskId> queue(tasks.begin(), tasks.end());
  if (!ready_) {
    if (deps_) return pop_first_enabled(queue, enabled_);
    return queue.front();
  }
  return pop_ready(queue, *graph_, memory, ready_window_,
                   deps_ ? &enabled_ : nullptr);
}

}  // namespace mg::sched
