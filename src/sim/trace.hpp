// Execution trace: a recording of the inspector stream's loads, evictions,
// task starts and completions, and output write-backs. Attach one to a run
// with RuntimeEngine::add_inspector (or ServeEngine::add_inspector); the
// run-report collector keeps one too (Options::collect_trace). Consumed by
// analysis::validate_trace (memory bound / residency invariants), by the
// Chrome-trace export and reuse statistics, and by the ablation benches that
// replay a recorded execution order under a different eviction policy.
#pragma once

#include <vector>

#include "core/ids.hpp"
#include "sim/inspector.hpp"

namespace mg::sim {

struct Trace final : Inspector {
  /// kLoadComplete (aux = 1 for a peer copy), kEvict, kTaskStart, kTaskEnd
  /// and kWriteBackEnd events, in stream order.
  std::vector<InspectorEvent> events;

  void on_event(const InspectorEvent& event) override {
    switch (event.kind) {
      case InspectorEventKind::kLoadComplete:
      case InspectorEventKind::kEvict:
      case InspectorEventKind::kTaskStart:
      case InspectorEventKind::kTaskEnd:
      case InspectorEventKind::kWriteBackEnd:
        events.push_back(event);
        break;
      default:
        break;
    }
  }

  /// Task ids in start order for one GPU — the realized σ(k, ·).
  [[nodiscard]] std::vector<core::TaskId> execution_order(
      core::GpuId gpu) const {
    std::vector<core::TaskId> order;
    for (const InspectorEvent& event : events) {
      if (event.kind == InspectorEventKind::kTaskStart && event.gpu == gpu) {
        order.push_back(event.id);
      }
    }
    return order;
  }
};

}  // namespace mg::sim
