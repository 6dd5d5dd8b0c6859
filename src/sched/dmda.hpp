// DMDA / DMDAR — StarPU's "Deque Model Data Aware" scheduler (Algorithm 1)
// and its Ready variant (Algorithm 2).
//
// Push side (prepare): tasks are allocated in submission order to the GPU
// with the earliest predicted completion time
//     C_k(T_i) = finish_k + sum_{D_j in D(T_i), D_j not in InMem(k)}
//                comm_k(D_j) + comp_k(T_i)
// where InMem(k) is the *predicted* content of GPU_k's memory: data are
// added when a task is allocated and never removed — the model is unaware of
// the memory bound, which is precisely the weakness the paper exploits
// (DMDAR "does not have a global view ... cannot make a balance between
// prefetching and eviction").
//
// Pop side: DMDA serves each GPU's queue FIFO; DMDAR applies Ready
// reordering over a bounded lookahead window. Each queue is a ReadyIndex
// (sched/ready.hpp), so a pop costs O(log queue) instead of a scan.
#pragma once

#include <vector>

#include "core/scheduler.hpp"
#include "sched/ready.hpp"

namespace mg::sched {

class DmdaScheduler : public core::Scheduler {
 public:
  /// `ready` selects DMDAR (Ready reordering at pop time); `push_prefetch`
  /// enables Algorithm 1's push-time prefetch requests (StarPU behaviour),
  /// issued by the runtime as low-priority transfers.
  explicit DmdaScheduler(bool ready = true,
                         std::size_t ready_window = kDefaultReadyWindow,
                         bool push_prefetch = true)
      : ready_(ready),
        ready_window_(ready_window),
        push_prefetch_(push_prefetch) {}

  [[nodiscard]] std::string_view name() const override {
    return ready_ ? "DMDAR" : "DMDA";
  }

  void prepare(const core::TaskGraph& graph, const core::Platform& platform,
               std::uint64_t seed) override;

  [[nodiscard]] core::TaskId pop_task(core::GpuId gpu,
                                      const core::MemoryView& memory) override;

  /// Streaming: the push-phase model (predicted InMem / finish time) is kept
  /// across arrivals and each arriving job is allocated incrementally with
  /// the same earliest-predicted-completion rule, skipping dead GPUs.
  [[nodiscard]] bool begin_streaming() override {
    streaming_ = true;
    return true;
  }

  /// Dependencies: batch mode still allocates the whole graph up front (the
  /// push model is a prediction of the full run), but pops are gated on an
  /// enabled bitmap fed by notify_task_retired. In streaming mode a task is
  /// allocated when it is first announced — at job arrival for the initial
  /// ready frontier, or at a predecessor's retirement for the rest.
  [[nodiscard]] bool begin_dependencies() override {
    deps_ = true;
    return true;
  }

  void notify_job_arrived(std::uint32_t job,
                          std::span<const core::TaskId> tasks) override;

  void notify_task_retired(
      core::TaskId task,
      std::span<const core::TaskId> enabled_successors) override;

  /// GPU loss: re-allocates the orphans and the dead GPU's unpopped queue
  /// greedily onto the currently shortest surviving queues (the push-phase
  /// balance rule, re-applied to the displaced work).
  [[nodiscard]] bool notify_gpu_lost(
      core::GpuId gpu, std::span<const core::TaskId> orphaned) override;

  /// Occupancy hint (GPU sharing): pop_task then prefers, within the ready
  /// window, a task whose warp footprint fits the remaining budget of a
  /// partially-busy GPU.
  void notify_occupancy(core::GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override;

  /// Algorithm 1 lines 7-9: the inputs of every task allocated to `gpu`,
  /// in first-need order (deduplicated).
  [[nodiscard]] std::vector<core::DataId> prefetch_hints(
      core::GpuId gpu) override;

  /// Predicted task allocation (push phase result), in queue order, for
  /// tests.
  [[nodiscard]] std::vector<core::TaskId> queue(core::GpuId gpu) const {
    return queues_[gpu].tasks();
  }

 private:
  /// Push-phase allocation of one task (earliest predicted completion over
  /// the GPUs with `dead_[gpu] == 0`).
  void allocate(core::TaskId task);
  /// Appends `task` to the queue of `gpu`.
  void enqueue(core::GpuId gpu, core::TaskId task);
  /// Debug oracle: the task pop_ready (or the FIFO pop for DMDA) picks from
  /// a copy of the live queue of `gpu`.
  [[nodiscard]] core::TaskId scan_choice(core::GpuId gpu,
                                         const core::MemoryView& memory) const;

  bool ready_;
  std::size_t ready_window_;
  bool push_prefetch_;
  bool streaming_ = false;
  bool deps_ = false;
  const core::TaskGraph* graph_ = nullptr;
  const core::Platform* platform_ = nullptr;
  std::vector<ReadyIndex> queues_;
  std::vector<std::uint8_t> dead_;  ///< GPUs lost to fault injection
  /// Dependency gating: a queued task may only be popped once enabled
  /// (monotone — revocations after a fault are handled engine-side by
  /// parking). `queue_of_` is the GPU a task was last queued on (or
  /// kInvalidGpu: not allocated yet, so a streamed task announced late by
  /// notify_task_retired still lands in a queue) and `position_` its
  /// position there, kept by the ReadyIndex.
  std::vector<std::uint8_t> enabled_;
  std::vector<core::GpuId> queue_of_;
  std::vector<std::uint32_t> position_;
  /// Push-phase model state, persistent across streaming arrivals.
  std::vector<std::vector<bool>> in_mem_;
  std::vector<double> finish_us_;
  /// Occupancy-sharing hints (armed by the first notify_occupancy; sharing
  /// off leaves pop order untouched).
  bool occ_hinted_ = false;
  std::vector<std::uint32_t> occ_active_warps_;
  std::vector<std::uint32_t> occ_free_warps_;
};

}  // namespace mg::sched
