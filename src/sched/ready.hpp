// The "Ready" reordering heuristic (Algorithm 2): among the tasks queued on
// a GPU, prefer the one whose missing input volume is smallest. StarPU's
// dmdar applies it at pop time over the worker's *entire* local queue — the
// paper notes both the benefit (DMDAR escapes EAGER's LRU pathology by
// jumping to tasks whose column is already resident, Section V-B) and the
// cost (DMDAR "suffers from a large scheduling time induced by looking at
// all the tasks", Section V-F). A bounded `window` is available for
// ablation studies.
//
// pop_ready is the reference definition: it rescans every queued task's
// inputs against the MemoryView, O(queue x inputs) per pop. The work-queue
// schedulers (mHFP, hMETIS+R) use it, because their queues take front
// inserts, tail steals and priority reorders. DMDA/DMDAR use ReadyIndex,
// which returns the same task at every pop at O(log queue) cost, so our
// DMDAR does not pay the scheduling time the paper measured (EXPERIMENTS.md,
// deviation 8). Debug builds check each ReadyIndex pick against pop_ready.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "core/task_graph.hpp"
#include "util/check.hpp"

namespace mg::sched {

inline constexpr std::size_t kDefaultReadyWindow =
    std::numeric_limits<std::size_t>::max();

/// Removes and returns the task among the first `window` entries of `queue`
/// requiring the fewest missing input bytes (ties: earliest in queue).
/// Returns kInvalidTask when the queue is empty.
///
/// On a dependency-gated run, `enabled` (indexed by TaskId) restricts the
/// choice to tasks whose predecessors all retired. The window then bounds
/// how many *enabled* candidates one decision inspects — the scan itself
/// walks the whole queue, because a bounded positional window over a queue
/// whose head is dependency-blocked could starve forever (the head never
/// leaves, the window never moves). Returns kInvalidTask when no queued
/// task is enabled.
inline core::TaskId pop_ready(std::deque<core::TaskId>& queue,
                              const core::TaskGraph& graph,
                              const core::MemoryView& memory,
                              std::size_t window = kDefaultReadyWindow,
                              const std::vector<std::uint8_t>* enabled =
                                  nullptr) {
  if (queue.empty()) return core::kInvalidTask;
  std::size_t best_index = queue.size();
  std::uint64_t best_missing = ~std::uint64_t{0};
  std::size_t inspected = 0;
  for (std::size_t i = 0; i < queue.size() && inspected < window; ++i) {
    if (enabled != nullptr && (*enabled)[queue[i]] == 0) continue;
    ++inspected;
    std::uint64_t missing = 0;
    for (core::DataId data : graph.inputs(queue[i])) {
      if (!memory.is_present_or_fetching(data)) missing += graph.data_size(data);
    }
    if (missing < best_missing) {
      best_missing = missing;
      best_index = i;
      if (missing == 0) break;  // cannot do better than zero transfers
    }
  }
  if (best_index == queue.size()) return core::kInvalidTask;
  const core::TaskId task = queue[best_index];
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best_index));
  return task;
}

/// One GPU's queue with the Ready pop made incremental. It holds
///   * the queue in append order, one position per append; a pop leaves a
///     hole that the next compaction closes;
///   * with `track_missing`, the missing input bytes of each queued task
///     against a ResidencyMirror of the GPU's memory, and per data the
///     positions of its queued consumers;
///   * a min tree over the eligible positions (queued and, on a
///     dependency-gated run, enabled) keyed by (missing bytes, position),
///     packed into one integer, and with a finite window their counts.
/// choose() first syncs the mirror: only the queued consumers of the data
/// whose bit flipped since the last call are updated. The tree's minimum is
/// pop_ready's choice, tie-break included; with a finite `window` the
/// choice is limited to the first `window` eligible positions, a prefix
/// min. Without `track_missing` every key is its position, so choose() is
/// FIFO over the eligible tasks (DMDA). Compaction re-lays the queue into a
/// tree of twice its live size when positions run out or when the tree has
/// become eight times larger than the queue, so the tree follows the
/// queue's size, not the graph's.
class ReadyIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Empties the index. `positions`, when non-null, is indexed by TaskId and
  /// kept equal to each queued task's position, for enable().
  void reset(const core::TaskGraph& graph, bool track_missing,
             std::size_t window, std::vector<std::uint32_t>* positions) {
    graph_ = &graph;
    track_missing_ = track_missing;
    window_ = window;
    positions_ = positions;
    mirror_.reset(track_missing ? graph.num_data() : 0);
    consumers_.assign(track_missing ? graph.num_data() : 0, {});
    slots_.clear();
    missing_.clear();
    eligible_.clear();
    live_ = 0;
    head_ = 0;
    end_ = 0;
    relayout(kMinCapacity);
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Appends `task`; it is a candidate from now on if `eligible`.
  void push_back(core::TaskId task, bool eligible) {
    if (end_ == capacity()) compact();
    const std::uint32_t pos = end_++;
    slots_[pos] = task;
    if (positions_ != nullptr) (*positions_)[task] = pos;
    std::uint64_t missing = 0;
    if (track_missing_) {
      std::uint64_t inputs = 0;
      for (core::DataId data : graph_->inputs(task)) {
        consumers_[data].push_back(pos);
        inputs += graph_->data_size(data);
        if (!mirror_.contains(data)) missing += graph_->data_size(data);
      }
      MG_CHECK_MSG(inputs >> (64 - kPositionBits) == 0,
                   "task inputs too large for the Ready index key");
    }
    missing_[pos] = missing;
    eligible_[pos] = eligible ? 1 : 0;
    ++live_;
    appended_.push_back(pos);  // the tree catches up in choose()
  }

  /// Makes the queued `task` a candidate. No-op when it is not queued here.
  void enable(core::TaskId task) {
    const std::uint32_t pos = (*positions_)[task];
    if (pos >= end_ || slots_[pos] != task || eligible_[pos] != 0) return;
    eligible_[pos] = 1;
    update(pos);
  }

  /// The position pop_ready would choose, or kNone when no task is a
  /// candidate. With `track_missing`, first brings missing bytes in line
  /// with `memory`.
  [[nodiscard]] std::uint32_t choose(const core::MemoryView& memory) {
    update_sorted(appended_);
    if (track_missing_) sync(memory);
    std::uint64_t best = key_[1];
    if (best == kNoKey) return kNone;
    if (counted() && window_ < count_[1]) {
      best = prefix_min(nth_eligible(static_cast<std::uint32_t>(window_)));
    }
    return static_cast<std::uint32_t>(best & kPositionMask);
  }

  [[nodiscard]] core::TaskId at(std::uint32_t pos) const { return slots_[pos]; }

  /// Removes and returns the task at a live position.
  core::TaskId remove(std::uint32_t pos) {
    const core::TaskId task = slots_[pos];
    MG_DCHECK(task != core::kInvalidTask);
    slots_[pos] = core::kInvalidTask;
    eligible_[pos] = 0;
    --live_;
    update(pos);
    while (head_ < end_ && slots_[head_] == core::kInvalidTask) ++head_;
    if (capacity() > kMinCapacity && 8 * std::size_t{live_} < capacity()) {
      compact();
    }
    return task;
  }

  /// Calls `visit(pos, task)` on the queued tasks in queue order until it
  /// returns true; returns whether it did.
  template <typename Visit>
  bool find_in_order(Visit&& visit) const {
    for (std::uint32_t pos = head_; pos < end_; ++pos) {
      if (slots_[pos] != core::kInvalidTask && visit(pos, slots_[pos])) {
        return true;
      }
    }
    return false;
  }

  /// The queued tasks in queue order.
  [[nodiscard]] std::vector<core::TaskId> tasks() const {
    std::vector<core::TaskId> out;
    out.reserve(live_);
    find_in_order([&](std::uint32_t, core::TaskId task) {
      out.push_back(task);
      return false;
    });
    return out;
  }

  /// Empties the queue (GPU loss), returning its tasks in queue order.
  std::vector<core::TaskId> take_all() {
    std::vector<core::TaskId> out = tasks();
    std::fill(slots_.begin(), slots_.begin() + end_, core::kInvalidTask);
    live_ = 0;
    relayout(kMinCapacity);
    return out;
  }

 private:
  static constexpr std::uint32_t kMinCapacity = 16;
  /// A key is (missing bytes << kPositionBits) | position, so the smallest
  /// key is the fewest missing bytes, then the earliest position.
  static constexpr unsigned kPositionBits = 24;
  static constexpr std::uint64_t kPositionMask =
      (std::uint64_t{1} << kPositionBits) - 1;
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  /// Eligible counts are kept only for a finite window.
  [[nodiscard]] bool counted() const {
    return window_ != kDefaultReadyWindow;
  }

  void set_leaf(std::uint32_t pos) {
    const std::size_t node = std::size_t{capacity()} + pos;
    key_[node] =
        eligible_[pos] != 0 ? (missing_[pos] << kPositionBits) | pos : kNoKey;
    if (counted()) count_[node] = eligible_[pos];
  }

  void pull(std::size_t node) {
    key_[node] = std::min(key_[2 * node], key_[2 * node + 1]);
    if (counted()) count_[node] = count_[2 * node] + count_[2 * node + 1];
  }

  /// Re-derives the leaf of `pos` and its ancestors.
  void update(std::uint32_t pos) {
    set_leaf(pos);
    for (std::size_t node = (std::size_t{capacity()} + pos) / 2; node > 0;
         node /= 2) {
      pull(node);
    }
  }

  /// update() for every position of `positions` (ascending), deriving each
  /// shared ancestor once: k adjacent positions cost O(k + log capacity)
  /// instead of O(k log capacity). Empties `positions`.
  void update_sorted(std::vector<std::uint32_t>& positions) {
    if (positions.empty()) return;
    for (std::uint32_t& pos : positions) {
      set_leaf(pos);
      pos += capacity();
    }
    while (positions.front() > 1) {
      std::size_t kept = 0;
      for (const std::uint32_t node : positions) {
        if (kept == 0 || positions[kept - 1] != node / 2) {
          positions[kept++] = node / 2;
        }
      }
      positions.resize(kept);
      for (const std::uint32_t node : positions) pull(node);
    }
    positions.clear();
  }

  /// Position of the `n`-th eligible entry (1-based; n <= count_[1]).
  [[nodiscard]] std::uint32_t nth_eligible(std::uint32_t n) const {
    std::size_t node = 1;
    while (node < capacity()) {
      if (count_[2 * node] >= n) {
        node = 2 * node;
      } else {
        n -= count_[2 * node];
        node = 2 * node + 1;
      }
    }
    return static_cast<std::uint32_t>(node - capacity());
  }

  /// Smallest key among positions [0, last].
  [[nodiscard]] std::uint64_t prefix_min(std::uint32_t last) const {
    std::uint64_t best = kNoKey;
    std::size_t lo = capacity();
    std::size_t hi = std::size_t{capacity()} + last + 1;
    while (lo < hi) {
      if ((lo & 1u) != 0) best = std::min(best, key_[lo++]);
      if ((hi & 1u) != 0) best = std::min(best, key_[--hi]);
      lo /= 2;
      hi /= 2;
    }
    return best;
  }

  void sync(const core::MemoryView& memory) {
    mirror_.sync(memory, [this](core::DataId data, bool present) {
      const std::uint64_t bytes = graph_->data_size(data);
      std::vector<std::uint32_t>& list = consumers_[data];
      std::size_t kept = 0;
      for (const std::uint32_t pos : list) {
        if (slots_[pos] == core::kInvalidTask) continue;  // popped
        list[kept++] = pos;
        missing_[pos] = present ? missing_[pos] - bytes : missing_[pos] + bytes;
      }
      list.resize(kept);
      touched_.assign(list.begin(), list.end());
      update_sorted(touched_);
    });
  }

  /// Closes the holes left by pops into a tree of twice the live queue.
  void compact() { relayout(std::max(kMinCapacity, std::bit_ceil(2 * live_))); }

  /// Moves the live entries down to positions 0, 1, ... in queue order (in
  /// place, so compaction allocates nothing once the buffers are sized) and
  /// rebuilds a tree of `capacity` leaves. Without holes, positions stay.
  void relayout(std::uint32_t capacity) {
    MG_CHECK_MSG(capacity <= kPositionMask + 1,
                 "queue too long for the Ready index key");
    if (live_ != end_) {
      for (auto& list : consumers_) list.clear();
      std::uint32_t next = 0;
      for (std::uint32_t pos = head_; pos < end_; ++pos) {
        const core::TaskId task = slots_[pos];
        if (task == core::kInvalidTask) continue;
        slots_[next] = task;
        missing_[next] = missing_[pos];
        eligible_[next] = eligible_[pos];
        if (positions_ != nullptr) (*positions_)[task] = next;
        if (track_missing_) {
          for (core::DataId data : graph_->inputs(task)) {
            consumers_[data].push_back(next);
          }
        }
        ++next;
      }
      std::fill(slots_.begin() + next, slots_.begin() + end_,
                core::kInvalidTask);
      head_ = 0;
      end_ = next;
    }
    slots_.resize(capacity, core::kInvalidTask);
    missing_.resize(capacity, 0);
    eligible_.resize(capacity, 0);
    appended_.clear();
    key_.assign(2 * std::size_t{capacity}, kNoKey);
    count_.assign(counted() ? 2 * std::size_t{capacity} : 0, 0);
    for (std::uint32_t pos = 0; pos < end_; ++pos) set_leaf(pos);
    for (std::size_t node = capacity - 1; node > 0; --node) pull(node);
  }

  const core::TaskGraph* graph_ = nullptr;
  bool track_missing_ = false;
  std::size_t window_ = kDefaultReadyWindow;
  std::vector<std::uint32_t>* positions_ = nullptr;
  core::ResidencyMirror mirror_;
  /// Per data: positions of its queued consumers, ascending; popped ones
  /// are dropped on the next visit.
  std::vector<std::vector<std::uint32_t>> consumers_;
  std::vector<core::TaskId> slots_;     ///< task per position, or invalid
  std::vector<std::uint64_t> missing_;  ///< missing input bytes per position
  std::vector<std::uint8_t> eligible_;  ///< candidate per position
  std::vector<std::uint64_t> key_;      ///< tree: smallest key per node
  std::vector<std::uint32_t> count_;    ///< tree: eligible positions per node
  /// Positions appended since the tree was last brought up to date.
  std::vector<std::uint32_t> appended_;
  std::vector<std::uint32_t> touched_;  ///< scratch of sync()
  std::uint32_t live_ = 0;
  std::uint32_t head_ = 0;  ///< no live position before it
  std::uint32_t end_ = 0;   ///< next append position
};

/// FIFO pop restricted to dependency-enabled tasks: removes and returns the
/// earliest queued task with a set `enabled` bit, or kInvalidTask when none
/// is enabled. Skipped (blocked) tasks keep their queue positions.
inline core::TaskId pop_first_enabled(
    std::deque<core::TaskId>& queue,
    const std::vector<std::uint8_t>& enabled) {
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (enabled[*it] != 0) {
      const core::TaskId task = *it;
      queue.erase(it);
      return task;
    }
  }
  return core::kInvalidTask;
}

}  // namespace mg::sched
