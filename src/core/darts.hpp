// DARTS — Data-Aware Reactive Task Scheduling (Algorithm 5) with the LUF
// ("Least Used in the Future") eviction policy (Algorithm 6). This is the
// paper's primary contribution.
//
// Scheduling side, per GPU request:
//   * if plannedTasks_k is non-empty, pop it;
//   * otherwise walk dataNotInMem_k for the data D maximizing n(D), the
//     number of available tasks that would need no further load if D were
//     brought in ("free" tasks). Ties are broken by total unprocessed
//     consumers, then uniformly at random. All free tasks of the chosen data
//     are planned on this GPU;
//   * if no data frees any task: the 3inputs variant looks for the data
//     enabling the most tasks that are exactly one further load away and
//     returns one of those tasks; otherwise a random available task is
//     returned.
// The OPTI variant stops the walk at the first data with n(D) >= 1; the
// threshold variant caps how many data one walk may visit (Sections V-E/V-F
// of the paper).
//
// Decision cost (the paper's first future-work item). n(D) is not recounted
// from D's consumers at each decision; each GPU keeps
//   * a mirror of its memory: which data are present or being fetched;
//   * missing[t], the inputs of task t absent from that mirror;
//   * count[k][D], the available consumers of D with missing == k, k <= 2.
// For D absent from the mirror n(D) = count[1][D] and m(D) = count[2][D]
// (m is 3inputs' one-load-away count); for D present or fetching — it can
// still be on the list — n(D) = count[0][D] and m(D) = count[1][D]. The
// mirror is synced against the MemoryView at the start of every planning
// decision: the data the view's residency journal logged since the last
// decision are re-probed (every data, for a view without a journal), and
// every flip updates missing[] and the counts of that data's live consumers
// (arrived and not done). The journal logs what no hook announces — fetch
// starts and drain-time wipes — so n(D) is exactly what a rescan would
// find, and decisions and RNG draws are the rescan's. A decision costs the
// journal entries since the last decision, the flips among them, and
// O(|dataNotInMem|) count reads. Debug builds recount n(D) and m(D) by the
// rescan at each decision and abort on a mismatch.
//
// Eviction side (LUF): prefer a victim used by no task of the GPU's pipeline
// (taskBuffer), minimizing uses by plannedTasks; otherwise apply Belady's
// rule over the pipeline. Planned tasks that depended on the evicted data
// return to the available pool.
//
// Dependency-gated runs (DAG workloads): the shared pool holds exactly the
// *ready frontier* — tasks whose predecessors all retired — maintained
// incrementally by notify_task_retired, so no planning round ever scans
// blocked tasks (they stay kUnsubmitted until enabled). Planning further
// becomes successor-aware: candidate data ties are broken towards the data
// whose freed tasks would *unlock* the most successors (successors one
// retirement away from enablement, weighted by the inputs they share with
// the unlocking task), and the no-free-task fallback picks the available
// task with the highest unlock weight instead of a uniformly random one.
// Independent-task runs never take these paths, so their decisions (and RNG
// draws) are untouched.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/eviction.hpp"
#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace mg::core {

struct DartsOptions {
  /// Use the LUF eviction policy (otherwise the engine default, LRU).
  bool use_luf = true;

  /// "3inputs": when no data enables a free task, pick the data enabling the
  /// most tasks that are a single additional load away (Section V-E).
  bool three_inputs = false;

  /// "OPTI": stop the data walk at the first data enabling >= 1 free task
  /// (Section V-F).
  bool opti = false;

  /// Cap on the number of candidate data visited per planning round;
  /// 0 = unlimited ("threshold" variant, Section V-C).
  std::uint32_t scan_threshold = 0;

  /// SLO tier boost (streamed serving): folds announced job priorities into
  /// planning — deps runs add tier_boost × priority to the unlock weight,
  /// other runs boost each candidate data's consumer score by its best
  /// available consumer's priority and restrict the no-free-task fallback
  /// to the highest-priority tasks. 0 (the default) leaves every decision
  /// and RNG draw untouched; the boost also stays dormant until some job
  /// announces a nonzero priority.
  double tier_boost = 0.0;
};

class DartsScheduler final : public Scheduler, public EvictionPolicy {
 public:
  explicit DartsScheduler(DartsOptions options = {});

  // Scheduler
  [[nodiscard]] std::string_view name() const override { return name_; }
  void prepare(const TaskGraph& graph, const Platform& platform,
               std::uint64_t seed) override;
  [[nodiscard]] TaskId pop_task(GpuId gpu, const MemoryView& memory) override;
  void notify_task_complete(GpuId gpu, TaskId task) override;
  void notify_data_loaded(GpuId gpu, DataId data) override;
  void notify_data_evicted(GpuId gpu, DataId data) override;
  /// GPU loss: the orphans (this GPU's taskBuffer) and its plannedTasks all
  /// return to the shared pool, so survivors re-plan them reactively —
  /// exactly the mechanism Algorithm 6 already uses for eviction fallout.
  [[nodiscard]] bool notify_gpu_lost(GpuId gpu,
                                     std::span<const TaskId> orphaned) override;
  /// Streaming: every task starts kUnsubmitted (absent from the shared
  /// pool); notify_job_arrived moves a job's tasks to kAvailable, where the
  /// reactive planning already picks them up — DARTS needs no placement
  /// decision at arrival time.
  [[nodiscard]] bool begin_streaming() override {
    streaming_ = true;
    return true;
  }
  void notify_job_arrived(std::uint32_t job,
                          std::span<const TaskId> tasks) override;
  /// Streaming dispatch priority (serve::JobSpec::priority, plus any tier
  /// admission weight the serving layer folds in). Only read when
  /// options().tier_boost > 0.
  void notify_job_priority(std::uint32_t job, std::uint32_t priority) override;
  /// Dependencies: the shared pool becomes the ready frontier and planning
  /// turns successor-aware (see the header comment).
  [[nodiscard]] bool begin_dependencies() override {
    deps_ = true;
    return true;
  }
  void notify_task_retired(TaskId task,
                           std::span<const TaskId> enabled_successors) override;
  /// Occupancy hint (GPU sharing): pop_planned then prefers, near the front
  /// of the planned deque, a task whose warp footprint fits the remaining
  /// budget of a partially-busy GPU.
  void notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override;
  [[nodiscard]] EvictionPolicy* eviction_policy(GpuId gpu) override {
    (void)gpu;
    return options_.use_luf ? this : nullptr;
  }

  // EvictionPolicy (LUF) — only wired when options_.use_luf.
  void on_load(GpuId gpu, DataId data) override;
  void on_use(GpuId gpu, DataId data) override;
  void on_evict(GpuId gpu, DataId data) override;
  [[nodiscard]] DataId choose_victim(
      GpuId gpu, std::span<const DataId> candidates) override;

  [[nodiscard]] const DartsOptions& options() const { return options_; }

  /// Planned-but-not-popped tasks currently reserved for `gpu` (test hook).
  [[nodiscard]] const std::deque<TaskId>& planned_tasks(GpuId gpu) const {
    return per_gpu_[gpu].planned;
  }

 private:
  enum class TaskState : std::uint8_t {
    kUnsubmitted,  ///< streaming: job not yet arrived — invisible to planning
    kAvailable,    ///< in the shared pool
    kPlanned,      ///< reserved in some GPU's plannedTasks
    kBuffered,     ///< popped into a GPU pipeline (the paper's taskBuffer)
    kDone,
  };

  /// dataNotInMem_k as an intrusive doubly-linked list over data ids, in
  /// *submission order* (removals do not scramble it): the order the plain,
  /// OPTI and threshold walks visit candidates in is part of their
  /// behaviour — a first-enabling-data rule only works when "first" means
  /// something (nearby in the natural task order).
  struct ScanList {
    std::vector<DataId> next;  ///< size num_data+1; last slot = sentinel
    std::vector<DataId> prev;
    std::vector<std::uint8_t> present;
    std::uint32_t count = 0;

    void init(std::uint32_t num_data);
    void remove(DataId data);
    void push_back(DataId data);
    [[nodiscard]] DataId sentinel() const {
      return static_cast<DataId>(present.size());
    }
    [[nodiscard]] DataId first() const { return next[sentinel()]; }
    [[nodiscard]] DataId after(DataId data) const { return next[data]; }
    [[nodiscard]] bool contains(DataId data) const {
      return present[data] != 0;
    }
  };

  struct PerGpu {
    std::deque<TaskId> planned;           ///< plannedTasks_k
    std::vector<TaskId> buffered;         ///< taskBuffer_k, in pop order
    ScanList data_not_in_mem;             ///< walk list, submission order
    std::vector<std::uint64_t> use_stamp; ///< LRU tie-break for LUF
    DataId scan_cursor = kInvalidData;    ///< rotating threshold-walk start

    /// Present-or-fetching mirror of the GPU's memory as of its last
    /// planning decision (see sync_memory).
    ResidencyMirror mirror;
    /// Inputs of each live task absent from the mirror.
    std::vector<std::uint32_t> missing;
    /// count[k][D]: available consumers of D with missing == k.
    std::array<std::vector<std::uint32_t>, 3> count;

    /// n(D): available tasks needing no load besides D.
    [[nodiscard]] std::uint32_t freed_by(DataId data) const {
      return mirror.contains(data) ? count[0][data] : count[1][data];
    }
    /// m(D): available tasks exactly one load besides D away (3inputs).
    [[nodiscard]] std::uint32_t one_away_with(DataId data) const {
      return mirror.contains(data) ? count[1][data] : count[2][data];
    }
  };

  void remove_from_available(TaskId task);
  void push_to_available(TaskId task);
  void remove_data_from_scan(GpuId gpu, DataId data);
  void push_data_to_scan(GpuId gpu, DataId data);

  // Shared pool and count maintenance.
  /// `task` (kUnsubmitted) arrived or was enabled: it joins the live
  /// consumer lists, gets its missing counts, and becomes available.
  void admit(TaskId task);
  /// Puts `task` back in the shared pool.
  void join_pool(TaskId task);
  /// Takes `task` out of the shared pool (the caller sets its new state).
  void leave_pool(TaskId task);
  /// Adds (or removes) `task` to the count bucket of its missing value on
  /// `gpu_state`, for each of its inputs.
  void adjust_counts(PerGpu& gpu_state, TaskId task, bool add) const;
  /// Calls `visit` on each live consumer of `data`, dropping done tasks
  /// from the list on the way.
  template <typename Visit>
  void for_each_live_consumer(DataId data, Visit&& visit);
  /// Brings the mirror of `gpu` in line with `memory` (see the header).
  void sync_memory(GpuId gpu, const MemoryView& memory);
  /// Debug audit: every listed data's counts equal a rescan of its
  /// consumers against `memory`.
  [[nodiscard]] bool counts_match_rescan(GpuId gpu,
                                         const MemoryView& memory) const;
  /// Fills free_tasks_ with the available consumers of `data` whose
  /// missing count on `gpu` is `missing`, in ascending task order.
  void collect_available(GpuId gpu, DataId data, std::uint32_t missing);

  /// Plans on `gpu` every available task freed by loading `data`, and pops
  /// the first of them.
  TaskId plan_and_pop(GpuId gpu, DataId data);

  TaskId pop_planned(GpuId gpu);

  // SLO tier boost (armed only with options_.tier_boost > 0 and a nonzero
  // announced priority, so default runs take the exact untiered paths).
  [[nodiscard]] bool tier_active() const {
    return options_.tier_boost > 0.0 && has_priorities_;
  }
  [[nodiscard]] std::uint32_t task_priority(TaskId task) const {
    return task < task_priority_.size() ? task_priority_[task] : 0;
  }
  /// Highest announced priority among the available consumers of `data`.
  [[nodiscard]] std::uint32_t data_priority(DataId data);
  TaskId take_random_available(GpuId gpu);
  TaskId take_three_inputs(GpuId gpu);
  void mark_buffered(GpuId gpu, TaskId task);

  // Successor-aware planning (dependency-gated runs only).
  /// Weight of the successors `task` would unlock by retiring: one point per
  /// successor whose last unretired predecessor is `task`, plus one per
  /// input that successor shares with `task` (running `task` keeps those
  /// loaded for the successor).
  [[nodiscard]] std::uint64_t unlock_weight(TaskId task) const;
  /// Sum of unlock_weight over the available consumers of `data`.
  [[nodiscard]] std::uint64_t successor_weight_of_data(DataId data);
  /// Tie-break over candidates_: unlock weight, then unprocessed consumers,
  /// then uniform random.
  [[nodiscard]] DataId choose_candidate_successor_aware();
  /// Fallback pop: the available task with the fewest absent inputs on
  /// `gpu`, breaking ties towards the highest unlock weight.
  TaskId take_available_successor_aware(GpuId gpu);

  DartsOptions options_;
  std::string name_;
  bool streaming_ = false;
  bool deps_ = false;
  const TaskGraph* graph_ = nullptr;
  util::Rng rng_;

  /// Unretired-predecessor mirror for the successor-aware weighting (not
  /// rolled back on fault-time un-retirements — a slightly stale weight is
  /// an acceptable heuristic error; correctness lives in the engine gate).
  std::vector<std::uint32_t> dep_pending_;
  std::vector<TaskState> state_;
  std::vector<TaskId> available_;            ///< shared pool
  std::vector<std::uint32_t> available_pos_; ///< task -> index, or npos
  std::vector<PerGpu> per_gpu_;
  std::uint64_t use_clock_ = 0;

  /// Per data: its live consumers (arrived and not done), in arrival order;
  /// done tasks are dropped lazily by for_each_live_consumer. Streamed runs
  /// walk only these, never the full consumer list of the union graph.
  std::vector<std::vector<TaskId>> live_consumers_;
  /// Per data: its live consumer count (the "unprocessed consumers"
  /// tie-break of Algorithm 5). Unsubmitted tasks do not count: they would
  /// leak knowledge of jobs that have not arrived yet into the tie-break.
  std::vector<std::uint32_t> unprocessed_;

  /// Occupancy-sharing hints (armed by the first notify_occupancy; sharing
  /// off leaves pop order untouched).
  bool occ_hinted_ = false;
  std::vector<std::uint32_t> occ_active_warps_;
  std::vector<std::uint32_t> occ_free_warps_;

  /// Job priorities announced via notify_job_priority and their per-task
  /// projection (filled as jobs arrive); `has_priorities_` arms the tier
  /// boost only once some job's priority is nonzero.
  std::vector<std::uint32_t> job_priority_;
  std::vector<std::uint32_t> task_priority_;
  bool has_priorities_ = false;

  // Scratch buffers reused across pops to avoid per-call allocation.
  std::vector<DataId> candidates_;
  std::vector<TaskId> free_tasks_;

  static constexpr std::uint32_t kNoPos = 0xffffffffu;
};

/// Human-readable variant name, e.g. "DARTS+LUF+OPTI-3inputs".
std::string darts_variant_name(const DartsOptions& options);

}  // namespace mg::core
