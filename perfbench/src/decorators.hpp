// Forwarding decorators that time the simulator's layers from outside.
//
// The engine already talks to three public interfaces: core::Scheduler,
// core::EvictionPolicy and sim::Inspector. Wrapping each one in a decorator
// that forwards every call unchanged — and times it on the way — splits a
// run's host time into layers without touching src/. A traced run must
// therefore stay byte-identical to an untraced one; tests/ asserts that on
// every workload, so a hook added to an interface later and left
// unforwarded here fails loudly instead of silently changing behaviour.
//
// Spans (name, start, end, parent) are kept in memory for the coarse calls
// — each run, prepare, each pop_task, each choose_victim, the partitioner
// call, report serialization — and written out once the pass ends. Notify
// hooks and inspector events are too frequent to span cheaply: they only
// add to a call count and a summed time (HookTally).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/scheduler.hpp"
#include "sim/inspector.hpp"
#include "sim/lru_eviction.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Span names (compared by pointer when aggregating).
inline constexpr const char* kSpanRun = "run";
inline constexpr const char* kSpanPrepare = "prepare";
inline constexpr const char* kSpanPop = "pop_task";
inline constexpr const char* kSpanChooseVictim = "choose_victim";
inline constexpr const char* kSpanPartition = "partition";
inline constexpr const char* kSpanSerialize = "serialize_report";

struct Span {
  const char* name = nullptr;
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

/// In-memory span recorder. Calls are synchronous and nest, so the open
/// spans form a stack and the parent of a new span is its top.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::int32_t open(const char* name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_s = now_s();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome tracing ("X" complete events, parent index in args). Returns
  /// false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Call count and summed host time of a hook family.
struct HookTally {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Times one hook call into a tally.
class TallyScope {
 public:
  explicit TallyScope(HookTally& tally) : tally_(tally), start_(Clock::now()) {}
  ~TallyScope() {
    ++tally_.calls;
    tally_.seconds +=
        std::chrono::duration<double>(Clock::now() - start_).count();
  }
  TallyScope(const TallyScope&) = delete;
  TallyScope& operator=(const TallyScope&) = delete;

 private:
  HookTally& tally_;
  Clock::time_point start_;
};

/// Memory-manager statistics gathered by TracedEviction.
struct EvictionStats {
  std::uint64_t choices = 0;     ///< choose_victim calls
  std::uint64_t candidates = 0;  ///< summed candidate-list lengths
  std::uint64_t refusals = 0;    ///< choose_victim returned kInvalidData
  HookTally hooks;               ///< on_load / on_use / on_evict
};

class TracedEviction final : public mg::core::EvictionPolicy {
 public:
  TracedEviction(mg::core::EvictionPolicy& inner, Tracer& tracer,
                 EvictionStats& stats)
      : inner_(inner), tracer_(tracer), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void on_load(mg::core::GpuId gpu, mg::core::DataId data) override;
  void on_use(mg::core::GpuId gpu, mg::core::DataId data) override;
  void on_evict(mg::core::GpuId gpu, mg::core::DataId data) override;
  [[nodiscard]] mg::core::DataId choose_victim(
      mg::core::GpuId gpu,
      std::span<const mg::core::DataId> candidates) override;

 private:
  mg::core::EvictionPolicy& inner_;
  Tracer& tracer_;
  EvictionStats& stats_;
};

/// Scheduler statistics gathered by TracedScheduler.
struct SchedulerStats {
  std::uint64_t pops = 0;
  std::uint64_t pop_hits = 0;  ///< pops that returned a task
  HookTally notify;            ///< every hook except prepare / pop_task
};

class TracedScheduler final : public mg::core::Scheduler {
 public:
  TracedScheduler(mg::core::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] const EvictionStats& eviction_stats() const {
    return eviction_stats_;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void prepare(const mg::core::TaskGraph& graph,
               const mg::core::Platform& platform,
               std::uint64_t seed) override;
  [[nodiscard]] mg::core::TaskId pop_task(
      mg::core::GpuId gpu, const mg::core::MemoryView& memory) override;

  [[nodiscard]] bool begin_streaming() override;
  void notify_job_arrived(std::uint32_t job,
                          std::span<const mg::core::TaskId> tasks) override;
  [[nodiscard]] bool begin_dependencies() override;
  void notify_task_retired(
      mg::core::TaskId task,
      std::span<const mg::core::TaskId> enabled_successors) override;
  void notify_job_priority(std::uint32_t job, std::uint32_t priority) override;
  void notify_job_retired(std::uint32_t job) override;
  void notify_task_complete(mg::core::GpuId gpu,
                            mg::core::TaskId task) override;
  void notify_occupancy(mg::core::GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override;
  void notify_data_loaded(mg::core::GpuId gpu, mg::core::DataId data) override;
  void notify_data_evicted(mg::core::GpuId gpu,
                           mg::core::DataId data) override;
  [[nodiscard]] bool notify_gpu_lost(
      mg::core::GpuId gpu, std::span<const mg::core::TaskId> orphaned) override;
  [[nodiscard]] bool notify_node_draining(
      mg::core::NodeId node, std::span<const mg::core::GpuId> gpus,
      std::span<const mg::core::TaskId> orphaned) override;
  void notify_node_added(mg::core::NodeId node,
                         std::span<const mg::core::GpuId> gpus) override;
  [[nodiscard]] bool notify_node_lost(
      mg::core::NodeId node, std::span<const mg::core::GpuId> gpus,
      std::span<const mg::core::TaskId> orphaned) override;
  void notify_node_suspected(mg::core::NodeId node) override;
  void notify_node_suspicion_cleared(mg::core::NodeId node) override;
  [[nodiscard]] std::optional<ReplayDivergence> replay_divergence(
      mg::core::GpuId gpu) override;
  [[nodiscard]] std::vector<mg::core::DataId> prefetch_hints(
      mg::core::GpuId gpu) override;

  /// The inner scheduler's policy for `gpu`, wrapped. Where the inner
  /// scheduler returns nullptr the wrapper stands in one LruEviction shared
  /// by all such GPUs — exactly the engine's own default.
  [[nodiscard]] mg::core::EvictionPolicy* eviction_policy(
      mg::core::GpuId gpu) override;

 private:
  mg::core::Scheduler& inner_;
  Tracer& tracer_;
  SchedulerStats stats_;
  EvictionStats eviction_stats_;
  std::uint32_t num_gpus_ = 0;
  std::uint32_t num_data_ = 0;
  std::unique_ptr<mg::sim::LruEviction> default_lru_;
  std::vector<std::unique_ptr<TracedEviction>> evictions_;  ///< per GPU
};

class TracedInspector final : public mg::sim::Inspector {
 public:
  explicit TracedInspector(mg::sim::Inspector& inner) : inner_(inner) {}

  /// Every callback (run begin/end, policy announcements, events).
  [[nodiscard]] const HookTally& tally() const { return tally_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

  void on_run_begin(const mg::core::TaskGraph& graph,
                    const mg::core::Platform& platform,
                    std::string_view scheduler_name) override;
  void on_eviction_policy(mg::core::GpuId gpu,
                          std::string_view policy_name) override;
  void on_event(const mg::sim::InspectorEvent& event) override;
  void on_run_end(double makespan_us) override;

 private:
  mg::sim::Inspector& inner_;
  HookTally tally_;
  std::uint64_t events_ = 0;
};

}  // namespace perfbench
