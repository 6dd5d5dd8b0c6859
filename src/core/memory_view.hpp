// Read-only view of one GPU's memory state, handed to schedulers when they
// are asked for a task. This is the scheduler-visible subset of what StarPU
// exposes (starpu_data_is_on_node & friends): residency and occupancy, but no
// ability to mutate — all loads/evictions are decided by the runtime engine
// and its eviction policy.
//
// A view may keep a residency journal: the data whose present-or-fetching
// bit may have changed, appended in order and never removed. A scheduler's
// ResidencyMirror replays it from a cursor, so keeping a per-GPU mirror in
// step costs the flips since its last read instead of a probe of every data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.hpp"

namespace mg::core {

class MemoryView {
 public:
  virtual ~MemoryView() = default;

  /// Data is fully resident (a task could start on it right now).
  [[nodiscard]] virtual bool is_present(DataId data) const = 0;

  /// Data is resident or its transfer is already in flight: using it costs no
  /// *additional* load. This is the notion of "already loaded" that the
  /// Ready heuristic and DARTS free-task counting use.
  [[nodiscard]] virtual bool is_present_or_fetching(DataId data) const = 0;

  [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;

  [[nodiscard]] std::uint64_t free_bytes() const {
    return capacity_bytes() - used_bytes();
  }

  /// The residency journal, or nullptr when the view keeps none (readers
  /// then poll every data).
  [[nodiscard]] virtual const std::vector<DataId>* residency_journal() const {
    return nullptr;
  }
};

/// A reader's mirror of one view's present-or-fetching bits. sync() replays
/// the journal from the mirror's cursor and re-probes each logged data; a
/// view without a journal, a journal this mirror has not read before, or a
/// backlog longer than the data count is polled in full instead.
/// `on_flip(data, present)` runs once per bit that differs from the mirror,
/// after the mirror is updated.
class ResidencyMirror {
 public:
  /// Everything absent, no journal read yet.
  void reset(std::size_t num_data) {
    bits_.assign(num_data, 0);
    journal_ = nullptr;
    cursor_ = 0;
  }

  [[nodiscard]] bool contains(DataId data) const { return bits_[data] != 0; }

  template <typename OnFlip>
  void sync(const MemoryView& memory, OnFlip&& on_flip) {
    const std::vector<DataId>* journal = memory.residency_journal();
    if (journal != nullptr && journal == journal_ &&
        cursor_ <= journal->size() &&
        journal->size() - cursor_ <= bits_.size()) {
      for (; cursor_ < journal->size(); ++cursor_) {
        probe(memory, (*journal)[cursor_], on_flip);
      }
      return;
    }
    for (DataId data = 0; data < bits_.size(); ++data) {
      probe(memory, data, on_flip);
    }
    journal_ = journal;
    cursor_ = journal != nullptr ? journal->size() : 0;
  }

 private:
  template <typename OnFlip>
  void probe(const MemoryView& memory, DataId data, OnFlip& on_flip) {
    const bool present = memory.is_present_or_fetching(data);
    if (present == (bits_[data] != 0)) return;
    bits_[data] = present ? 1 : 0;
    on_flip(data, present);
  }

  std::vector<std::uint8_t> bits_;
  const std::vector<DataId>* journal_ = nullptr;
  std::size_t cursor_ = 0;
};

}  // namespace mg::core
