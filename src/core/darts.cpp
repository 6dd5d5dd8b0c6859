#include "core/darts.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mg::core {

std::string darts_variant_name(const DartsOptions& options) {
  std::string name = "DARTS";
  if (options.use_luf) name += "+LUF";
  if (options.opti) name += "+OPTI";
  if (options.scan_threshold > 0) name += "+threshold";
  if (options.three_inputs) name += "-3inputs";
  if (options.tier_boost > 0.0) name += "+tier";
  return name;
}

DartsScheduler::DartsScheduler(DartsOptions options)
    : options_(options), name_(darts_variant_name(options)) {}

void DartsScheduler::ScanList::init(std::uint32_t num_data) {
  next.resize(num_data + 1);
  prev.resize(num_data + 1);
  present.assign(num_data, 1);
  count = num_data;
  // Chain 0,1,...,n-1 with slot n as the sentinel.
  for (std::uint32_t data = 0; data <= num_data; ++data) {
    next[data] = data + 1 <= num_data ? data + 1 : 0;
    prev[data] = data > 0 ? data - 1 : num_data;
  }
  next[num_data] = num_data == 0 ? num_data : 0;
  prev[0] = num_data;
  next[num_data == 0 ? 0 : num_data - 1] = num_data;
  prev[num_data] = num_data == 0 ? num_data : num_data - 1;
}

void DartsScheduler::ScanList::remove(DataId data) {
  if (present[data] == 0) return;
  present[data] = 0;
  next[prev[data]] = next[data];
  prev[next[data]] = prev[data];
  --count;
}

void DartsScheduler::ScanList::push_back(DataId data) {
  if (present[data] != 0) return;
  present[data] = 1;
  const DataId tail = prev[sentinel()];
  next[tail] = data;
  prev[data] = tail;
  next[data] = sentinel();
  prev[sentinel()] = data;
  ++count;
}

template <typename Visit>
void DartsScheduler::for_each_live_consumer(DataId data, Visit&& visit) {
  std::vector<TaskId>& live = live_consumers_[data];
  std::size_t kept = 0;
  for (const TaskId task : live) {
    if (state_[task] == TaskState::kDone) continue;
    live[kept++] = task;
    visit(task);
  }
  live.resize(kept);
}

void DartsScheduler::prepare(const TaskGraph& graph, const Platform& platform,
                             std::uint64_t seed) {
  graph_ = &graph;
  rng_.reseed(seed);

  const std::uint32_t num_tasks = graph.num_tasks();
  const std::uint32_t num_data = graph.num_data();
  dep_pending_.clear();
  if (deps_) {
    dep_pending_.resize(num_tasks);
    for (TaskId task = 0; task < num_tasks; ++task) {
      dep_pending_[task] = graph.num_predecessors(task);
    }
  }
  state_.assign(num_tasks, TaskState::kUnsubmitted);
  available_.clear();
  available_pos_.assign(num_tasks, kNoPos);
  live_consumers_.assign(num_data, {});
  unprocessed_.assign(num_data, 0);

  per_gpu_.assign(platform.num_gpus, PerGpu{});
  for (PerGpu& gpu_state : per_gpu_) {
    gpu_state.data_not_in_mem.init(num_data);
    gpu_state.use_stamp.assign(num_data, 0);
    gpu_state.mirror.reset(num_data);
    gpu_state.missing.assign(num_tasks, 0);
    for (auto& count : gpu_state.count) count.assign(num_data, 0);
  }

  // Streaming: nothing has arrived yet, the shared pool fills via
  // notify_job_arrived. Dependencies: the shared pool is the ready frontier,
  // so only tasks without predecessors start available; the rest join via
  // notify_task_retired.
  if (!streaming_) {
    for (TaskId task = 0; task < num_tasks; ++task) {
      if (!deps_ || graph.num_predecessors(task) == 0) admit(task);
    }
  }
  occ_hinted_ = false;
  occ_active_warps_.assign(platform.num_gpus, 0);
  occ_free_warps_.assign(platform.num_gpus, 0);
  // Priority announcements may precede prepare (the serving layer announces
  // at construction), so only the per-task projection resets here.
  task_priority_.assign(num_tasks, 0);
  use_clock_ = 0;
}

void DartsScheduler::notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                                      std::uint32_t free_warps) {
  occ_hinted_ = true;
  occ_active_warps_[gpu] = active_warps;
  occ_free_warps_[gpu] = free_warps;
}

void DartsScheduler::notify_job_arrived(std::uint32_t job,
                                        std::span<const TaskId> tasks) {
  if (has_priorities_) {
    const std::uint32_t priority =
        job < job_priority_.size() ? job_priority_[job] : 0;
    for (TaskId task : tasks) task_priority_[task] = priority;
  }
  for (TaskId task : tasks) admit(task);
}

void DartsScheduler::notify_job_priority(std::uint32_t job,
                                         std::uint32_t priority) {
  if (job >= job_priority_.size()) job_priority_.resize(job + 1, 0);
  job_priority_[job] = priority;
  if (priority > 0) has_priorities_ = true;
}

std::uint32_t DartsScheduler::data_priority(DataId data) {
  std::uint32_t best = 0;
  for_each_live_consumer(data, [&](TaskId task) {
    if (state_[task] == TaskState::kAvailable) {
      best = std::max(best, task_priority(task));
    }
  });
  return best;
}

void DartsScheduler::notify_task_retired(
    TaskId task, std::span<const TaskId> enabled_successors) {
  // Keep the unretired-predecessor mirror fresh for the unlock weighting.
  for (TaskId succ : graph_->successors(task)) {
    if (dep_pending_[succ] > 0) --dep_pending_[succ];
  }
  // The enabled successors extend the ready frontier — the same move a
  // streamed job arrival makes.
  for (TaskId succ : enabled_successors) admit(succ);
}

std::uint64_t DartsScheduler::unlock_weight(TaskId task) const {
  std::uint64_t weight = 0;
  const auto inputs = graph_->inputs(task);
  for (TaskId succ : graph_->successors(task)) {
    // `task` has not retired, so it still counts in the successor's pending
    // total: a count of one means `task` is the last blocker.
    if (dep_pending_[succ] != 1) continue;
    std::uint64_t shared = 0;
    for (DataId data : graph_->inputs(succ)) {
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        ++shared;
      }
    }
    weight += 1 + shared;
  }
  // Tier boost: high-priority tasks score as if they unlocked extra
  // successors, so every successor-aware choice leans their way.
  if (tier_active()) {
    weight += static_cast<std::uint64_t>(
        options_.tier_boost * static_cast<double>(task_priority(task)));
  }
  return weight;
}

std::uint64_t DartsScheduler::successor_weight_of_data(DataId data) {
  std::uint64_t weight = 0;
  for_each_live_consumer(data, [&](TaskId task) {
    if (state_[task] == TaskState::kAvailable) weight += unlock_weight(task);
  });
  return weight;
}

DataId DartsScheduler::choose_candidate_successor_aware() {
  std::uint64_t best_weight = 0;
  std::uint32_t best_consumers = 0;
  std::size_t tie_count = 0;
  DataId chosen = kInvalidData;
  for (DataId data : candidates_) {
    const std::uint64_t weight = successor_weight_of_data(data);
    const std::uint32_t consumers = unprocessed_[data];
    if (chosen == kInvalidData || weight > best_weight ||
        (weight == best_weight && consumers > best_consumers)) {
      best_weight = weight;
      best_consumers = consumers;
      chosen = data;
      tie_count = 1;
    } else if (weight == best_weight && consumers == best_consumers) {
      ++tie_count;
      if (rng_.below(tie_count) == 0) chosen = data;
    }
  }
  return chosen;
}

TaskId DartsScheduler::take_available_successor_aware(GpuId gpu) {
  // Locality first: a narrow ready frontier makes this fallback the common
  // case on DAG runs, and a frontier task with fewer absent inputs costs
  // fewer host loads right now. Unlock weight only breaks locality ties —
  // the reverse ordering thrashes the cache once the working set spills.
  const PerGpu& gpu_state = per_gpu_[gpu];
  std::uint32_t best_missing = 0;
  std::uint64_t best_weight = 0;
  std::size_t tie_count = 0;
  TaskId chosen = kInvalidTask;
  for (TaskId task : available_) {
    const std::uint32_t missing = gpu_state.missing[task];
    const std::uint64_t weight = unlock_weight(task);
    if (chosen == kInvalidTask || missing < best_missing ||
        (missing == best_missing && weight > best_weight)) {
      best_missing = missing;
      best_weight = weight;
      chosen = task;
      tie_count = 1;
    } else if (missing == best_missing && weight == best_weight) {
      ++tie_count;
      if (rng_.below(tie_count) == 0) chosen = task;
    }
  }
  if (chosen == kInvalidTask) return kInvalidTask;
  for (DataId data : graph_->inputs(chosen)) remove_data_from_scan(gpu, data);
  leave_pool(chosen);
  mark_buffered(gpu, chosen);
  return chosen;
}

void DartsScheduler::admit(TaskId task) {
  MG_DCHECK(state_[task] == TaskState::kUnsubmitted);
  const auto inputs = graph_->inputs(task);
  for (DataId data : inputs) {
    live_consumers_[data].push_back(task);
    ++unprocessed_[data];
  }
  for (PerGpu& gpu_state : per_gpu_) {
    std::uint32_t missing = 0;
    for (DataId data : inputs) {
      if (!gpu_state.mirror.contains(data)) ++missing;
    }
    gpu_state.missing[task] = missing;
  }
  join_pool(task);
}

void DartsScheduler::join_pool(TaskId task) {
  state_[task] = TaskState::kAvailable;
  push_to_available(task);
  for (PerGpu& gpu_state : per_gpu_) adjust_counts(gpu_state, task, true);
}

void DartsScheduler::leave_pool(TaskId task) {
  for (PerGpu& gpu_state : per_gpu_) adjust_counts(gpu_state, task, false);
  remove_from_available(task);
}

void DartsScheduler::adjust_counts(PerGpu& gpu_state, TaskId task,
                                   bool add) const {
  const std::uint32_t missing = gpu_state.missing[task];
  if (missing >= gpu_state.count.size()) return;
  std::vector<std::uint32_t>& count = gpu_state.count[missing];
  for (DataId data : graph_->inputs(task)) {
    if (add) {
      ++count[data];
    } else {
      MG_DCHECK(count[data] > 0);
      --count[data];
    }
  }
}

void DartsScheduler::sync_memory(GpuId gpu, const MemoryView& memory) {
  PerGpu& gpu_state = per_gpu_[gpu];
  gpu_state.mirror.sync(memory, [&](DataId data, bool present) {
    for_each_live_consumer(data, [&](TaskId task) {
      const bool available = state_[task] == TaskState::kAvailable;
      if (available) adjust_counts(gpu_state, task, false);
      if (present) {
        --gpu_state.missing[task];
      } else {
        ++gpu_state.missing[task];
      }
      if (available) adjust_counts(gpu_state, task, true);
    });
  });
}

bool DartsScheduler::counts_match_rescan(GpuId gpu,
                                         const MemoryView& memory) const {
  const PerGpu& gpu_state = per_gpu_[gpu];
  const ScanList& list = gpu_state.data_not_in_mem;
  for (DataId data = list.first(); data != list.sentinel();
       data = list.after(data)) {
    std::uint32_t freed = 0;
    std::uint32_t one_away = 0;
    std::uint32_t unprocessed = 0;
    for (TaskId task : graph_->consumers(data)) {
      if (state_[task] == TaskState::kDone ||
          state_[task] == TaskState::kUnsubmitted) {
        continue;
      }
      ++unprocessed;
      if (state_[task] != TaskState::kAvailable) continue;
      std::uint32_t absent_others = 0;
      for (DataId input : graph_->inputs(task)) {
        if (input != data && !memory.is_present_or_fetching(input)) {
          ++absent_others;
        }
      }
      if (absent_others == 0) ++freed;
      if (absent_others == 1) ++one_away;
    }
    if (freed != gpu_state.freed_by(data) ||
        one_away != gpu_state.one_away_with(data) ||
        unprocessed != unprocessed_[data]) {
      return false;
    }
  }
  return true;
}

void DartsScheduler::collect_available(GpuId gpu, DataId data,
                                       std::uint32_t missing) {
  const PerGpu& gpu_state = per_gpu_[gpu];
  free_tasks_.clear();
  for_each_live_consumer(data, [&](TaskId task) {
    if (state_[task] == TaskState::kAvailable &&
        gpu_state.missing[task] == missing) {
      free_tasks_.push_back(task);
    }
  });
  // Live lists are in arrival order, which streamed and DAG runs scramble;
  // plan order and the 3inputs draw follow ascending task ids, the order
  // of consumers().
  std::sort(free_tasks_.begin(), free_tasks_.end());
}

TaskId DartsScheduler::pop_task(GpuId gpu, const MemoryView& memory) {
  PerGpu& gpu_state = per_gpu_[gpu];
  if (!gpu_state.planned.empty()) return pop_planned(gpu);
  if (available_.empty()) return kInvalidTask;
  sync_memory(gpu, memory);
  MG_DCHECK(counts_match_rescan(gpu, memory));

  // Line 4-6 of Algorithm 5: find the data whose load frees the most tasks.
  // The list is walked in submission order; the threshold variant caps how
  // many entries one decision may visit and rotates the start so successive
  // decisions cover the whole list rather than re-inspecting a stale prefix.
  const ScanList& list = gpu_state.data_not_in_mem;
  const std::size_t scan_limit =
      options_.scan_threshold > 0
          ? std::min<std::size_t>(options_.scan_threshold, list.count)
          : list.count;
  DataId scan_start = list.first();
  if (options_.scan_threshold > 0 && gpu_state.scan_cursor != kInvalidData &&
      list.contains(gpu_state.scan_cursor)) {
    scan_start = gpu_state.scan_cursor;
  }
  std::uint32_t n_max = 0;
  candidates_.clear();
  DataId data = scan_start;
  for (std::size_t i = 0; i < scan_limit; ++i) {
    if (data == list.sentinel()) data = list.first();  // wrap
    const DataId current = data;
    data = list.after(data);
    const std::uint32_t n = gpu_state.freed_by(current);
    if (n == 0) continue;
    if (options_.opti) {
      gpu_state.scan_cursor = data == list.sentinel() ? kInvalidData : data;
      return plan_and_pop(gpu, current);
    }
    if (n > n_max) {
      n_max = n;
      candidates_.clear();
      candidates_.push_back(current);
    } else if (n == n_max) {
      candidates_.push_back(current);
    }
  }
  if (options_.scan_threshold > 0) {
    gpu_state.scan_cursor = data == list.sentinel() ? kInvalidData : data;
  }

  if (n_max > 0) {
    // On a dependency-gated run, break candidate ties towards the data
    // whose freed tasks unlock the most successors.
    if (deps_) return plan_and_pop(gpu, choose_candidate_successor_aware());
    // Tier boost: each candidate's consumer score is lifted by its best
    // available consumer's priority, so data serving high-tier jobs is
    // planned first. Dormant runs never enter this branch (identical
    // decisions and RNG draws).
    if (tier_active()) {
      double best_score = -1.0;
      std::size_t tie_count = 0;
      DataId chosen = kInvalidData;
      for (DataId candidate : candidates_) {
        const double score =
            static_cast<double>(unprocessed_[candidate]) +
            options_.tier_boost * static_cast<double>(data_priority(candidate));
        if (score > best_score) {
          best_score = score;
          chosen = candidate;
          tie_count = 1;
        } else if (score == best_score) {
          ++tie_count;
          if (rng_.below(tie_count) == 0) chosen = candidate;
        }
      }
      return plan_and_pop(gpu, chosen);
    }
    // Lines 8-9: among data freeing n_max tasks, prefer the one useful to
    // the most unprocessed tasks overall; break remaining ties at random.
    std::uint32_t best_consumers = 0;
    std::size_t tie_count = 0;
    DataId chosen = kInvalidData;
    for (DataId candidate : candidates_) {
      const std::uint32_t consumers = unprocessed_[candidate];
      if (consumers > best_consumers) {
        best_consumers = consumers;
        chosen = candidate;
        tie_count = 1;
      } else if (consumers == best_consumers) {
        // Reservoir-style uniform choice among ties.
        ++tie_count;
        if (rng_.below(tie_count) == 0) chosen = candidate;
      }
    }
    return plan_and_pop(gpu, chosen);
  }

  // Line 13: no data frees a task.
  if (options_.three_inputs) {
    const TaskId task = take_three_inputs(gpu);
    if (task != kInvalidTask) return task;
  }
  return take_random_available(gpu);
}

TaskId DartsScheduler::plan_and_pop(GpuId gpu, DataId data) {
  PerGpu& gpu_state = per_gpu_[gpu];
  collect_available(gpu, data, gpu_state.mirror.contains(data) ? 0 : 1);
  MG_DCHECK(!free_tasks_.empty());
  for (TaskId task : free_tasks_) {
    leave_pool(task);
    state_[task] = TaskState::kPlanned;
    gpu_state.planned.push_back(task);
  }
  remove_data_from_scan(gpu, data);
  return pop_planned(gpu);
}

TaskId DartsScheduler::pop_planned(GpuId gpu) {
  PerGpu& gpu_state = per_gpu_[gpu];
  MG_DCHECK(!gpu_state.planned.empty());
  // Sharing mode, GPU partially busy: prefer a planned task that fits the
  // free warps so it co-runs instead of blocking at admission. The plan's
  // data locality is preserved — only the pop order within the front of the
  // planned deque shifts.
  if (occ_hinted_ && occ_active_warps_[gpu] > 0) {
    const std::uint32_t free = occ_free_warps_[gpu];
    const std::size_t window = std::min<std::size_t>(8, gpu_state.planned.size());
    for (std::size_t i = 0; i < window; ++i) {
      const TaskId candidate = gpu_state.planned[i];
      const std::uint32_t warps = graph_->task_warps(candidate);
      if (warps != 0 && warps <= free) {
        gpu_state.planned.erase(gpu_state.planned.begin() +
                                static_cast<std::ptrdiff_t>(i));
        mark_buffered(gpu, candidate);
        return candidate;
      }
    }
  }
  const TaskId task = gpu_state.planned.front();
  gpu_state.planned.pop_front();
  mark_buffered(gpu, task);
  return task;
}

TaskId DartsScheduler::take_random_available(GpuId gpu) {
  if (available_.empty()) return kInvalidTask;
  // Dependency-gated runs replace the blind uniform pick with a
  // locality-then-unlock-weight choice over the ready frontier.
  if (deps_) return take_available_successor_aware(gpu);
  TaskId task = kInvalidTask;
  if (tier_active()) {
    // Restrict the uniform pick to the highest-priority available tasks.
    std::uint32_t best_priority = 0;
    std::size_t tie_count = 0;
    for (TaskId candidate : available_) {
      const std::uint32_t priority = task_priority(candidate);
      if (task == kInvalidTask || priority > best_priority) {
        best_priority = priority;
        task = candidate;
        tie_count = 1;
      } else if (priority == best_priority) {
        ++tie_count;
        if (rng_.below(tie_count) == 0) task = candidate;
      }
    }
  } else {
    task = available_[rng_.pick_index(available_)];
  }
  for (DataId data : graph_->inputs(task)) remove_data_from_scan(gpu, data);
  leave_pool(task);
  mark_buffered(gpu, task);
  return task;
}

TaskId DartsScheduler::take_three_inputs(GpuId gpu) {
  PerGpu& gpu_state = per_gpu_[gpu];
  const ScanList& list = gpu_state.data_not_in_mem;
  const std::size_t scan_limit =
      options_.scan_threshold > 0
          ? std::min<std::size_t>(options_.scan_threshold, list.count)
          : list.count;
  DataId cursor = list.first();
  if (options_.scan_threshold > 0 && gpu_state.scan_cursor != kInvalidData &&
      list.contains(gpu_state.scan_cursor)) {
    cursor = gpu_state.scan_cursor;
  }
  // Find the data enabling the most tasks that need exactly one further
  // load; return one of those tasks (Section V-E).
  std::uint32_t best_n = 0;
  DataId best_data = kInvalidData;
  for (std::size_t i = 0; i < scan_limit; ++i) {
    if (cursor == list.sentinel()) cursor = list.first();  // wrap
    const DataId data = cursor;
    cursor = list.after(cursor);
    const std::uint32_t n = gpu_state.one_away_with(data);
    if (n > best_n) {
      best_n = n;
      best_data = data;
    }
  }
  if (best_data == kInvalidData) return kInvalidTask;

  // Pick one qualifying task of best_data uniformly at random.
  collect_available(gpu, best_data,
                    gpu_state.mirror.contains(best_data) ? 1 : 2);
  MG_DCHECK(!free_tasks_.empty());
  const TaskId task = free_tasks_[rng_.pick_index(free_tasks_)];
  for (DataId data : graph_->inputs(task)) remove_data_from_scan(gpu, data);
  leave_pool(task);
  mark_buffered(gpu, task);
  return task;
}

void DartsScheduler::mark_buffered(GpuId gpu, TaskId task) {
  state_[task] = TaskState::kBuffered;
  per_gpu_[gpu].buffered.push_back(task);
}

void DartsScheduler::notify_task_complete(GpuId gpu, TaskId task) {
  MG_DCHECK(state_[task] == TaskState::kBuffered);
  state_[task] = TaskState::kDone;
  // Leaves the live set; the consumer lists drop it lazily.
  for (DataId data : graph_->inputs(task)) --unprocessed_[data];
  // The entry can be legitimately absent: when `gpu` died, notify_gpu_lost
  // cleared its whole taskBuffer, yet a task the engine had ejected from the
  // pipeline beforehand (fault-time dependency revocation) still reports its
  // completion against this GPU.
  auto& buffered = per_gpu_[gpu].buffered;
  auto it = std::find(buffered.begin(), buffered.end(), task);
  if (it != buffered.end()) buffered.erase(it);
}

void DartsScheduler::notify_data_loaded(GpuId gpu, DataId data) {
  // Normally the data was removed from the scan list when selected; this
  // covers loads triggered outside a planning decision.
  remove_data_from_scan(gpu, data);
}

bool DartsScheduler::notify_gpu_lost(GpuId gpu,
                                     std::span<const TaskId> orphaned) {
  PerGpu& gpu_state = per_gpu_[gpu];

  // The orphans are the dead GPU's pipeline (taskBuffer) — back to the
  // shared pool so any survivor can pick them up at its next pop.
  for (TaskId task : orphaned) {
    MG_DCHECK(state_[task] == TaskState::kBuffered);
    join_pool(task);
  }
  gpu_state.buffered.clear();

  // Planned-but-unpopped tasks were reserved for the dead GPU; release the
  // reservation the same way Algorithm 6 line 8 does after an eviction.
  for (TaskId task : gpu_state.planned) {
    MG_DCHECK(state_[task] == TaskState::kPlanned);
    join_pool(task);
  }
  gpu_state.planned.clear();
  return true;
}

void DartsScheduler::notify_data_evicted(GpuId gpu, DataId data) {
  push_data_to_scan(gpu, data);
}

void DartsScheduler::on_load(GpuId gpu, DataId data) {
  per_gpu_[gpu].use_stamp[data] = ++use_clock_;
}

void DartsScheduler::on_use(GpuId gpu, DataId data) {
  per_gpu_[gpu].use_stamp[data] = ++use_clock_;
}

void DartsScheduler::on_evict(GpuId gpu, DataId data) {
  // Algorithm 6 line 8: planned tasks depending on the victim go back to the
  // shared pool (their placement is reconsidered later).
  auto& planned = per_gpu_[gpu].planned;
  for (auto it = planned.begin(); it != planned.end();) {
    const auto inputs = graph_->inputs(*it);
    if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
      join_pool(*it);
      it = planned.erase(it);
    } else {
      ++it;
    }
  }
}

DataId DartsScheduler::choose_victim(GpuId gpu,
                                     std::span<const DataId> candidates) {
  const PerGpu& gpu_state = per_gpu_[gpu];

  // nb(D): uses by taskBuffer; np(D): uses by plannedTasks. Both computed on
  // the candidate set only, via the (small) task lists.
  auto count_uses = [this](const auto& tasks, DataId data) {
    std::uint32_t uses = 0;
    for (TaskId task : tasks) {
      const auto inputs = graph_->inputs(task);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        ++uses;
      }
    }
    return uses;
  };

  // Line 5 of Algorithm 6: among data unused by the pipeline, evict the one
  // with the fewest planned uses. The paper leaves ties unspecified; we
  // break them by recency (least recently used first), so that "spent" data
  // go before data that current planning is still clustered around.
  DataId victim = kInvalidData;
  std::uint32_t best_np = ~std::uint32_t{0};
  std::uint64_t best_stamp = ~std::uint64_t{0};
  for (DataId data : candidates) {
    if (count_uses(gpu_state.buffered, data) != 0) continue;
    const std::uint32_t np = count_uses(gpu_state.planned, data);
    const std::uint64_t stamp = gpu_state.use_stamp[data];
    if (np < best_np || (np == best_np && stamp < best_stamp)) {
      best_np = np;
      best_stamp = stamp;
      victim = data;
    }
  }
  if (victim != kInvalidData) return victim;

  // Fallback (line 7): Belady's rule on the taskBuffer — evict the data
  // whose next use in pipeline order is the furthest away.
  std::size_t furthest = 0;
  for (DataId data : candidates) {
    std::size_t next_use = gpu_state.buffered.size();  // "never" sentinel
    for (std::size_t i = 0; i < gpu_state.buffered.size(); ++i) {
      const auto inputs = graph_->inputs(gpu_state.buffered[i]);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        next_use = i;
        break;
      }
    }
    if (victim == kInvalidData || next_use > furthest) {
      victim = data;
      furthest = next_use;
    }
  }
  return victim;
}

void DartsScheduler::remove_from_available(TaskId task) {
  const std::uint32_t pos = available_pos_[task];
  MG_DCHECK(pos != kNoPos);
  const TaskId moved = available_.back();
  available_[pos] = moved;
  available_pos_[moved] = pos;
  available_.pop_back();
  available_pos_[task] = kNoPos;
}

void DartsScheduler::push_to_available(TaskId task) {
  MG_DCHECK(available_pos_[task] == kNoPos);
  available_pos_[task] = static_cast<std::uint32_t>(available_.size());
  available_.push_back(task);
}

void DartsScheduler::remove_data_from_scan(GpuId gpu, DataId data) {
  PerGpu& gpu_state = per_gpu_[gpu];
  if (!gpu_state.data_not_in_mem.contains(data)) return;
  if (gpu_state.scan_cursor == data) {
    const DataId next = gpu_state.data_not_in_mem.after(data);
    gpu_state.scan_cursor =
        next == gpu_state.data_not_in_mem.sentinel() ? kInvalidData : next;
  }
  gpu_state.data_not_in_mem.remove(data);
}

void DartsScheduler::push_data_to_scan(GpuId gpu, DataId data) {
  per_gpu_[gpu].data_not_in_mem.push_back(data);
}

}  // namespace mg::core
