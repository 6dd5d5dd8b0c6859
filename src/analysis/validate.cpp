#include "analysis/validate.hpp"

#include "sim/inspector.hpp"
#include "sim/invariant_checker.hpp"

namespace mg::analysis {

// A trace only records load/evict/start/end/write-back, so
// Options::online = false relaxes the fetch/notify checks accordingly. The
// invariants themselves (residency at start, memory bound, exactly-once,
// one task per GPU, monotone time) live in sim::InvariantChecker only.
ValidationResult validate_trace(const core::TaskGraph& graph,
                                const core::Platform& platform,
                                const sim::Trace& trace) {
  sim::InvariantChecker checker(
      {.fail_fast = false, .online = false, .log_window = 24});
  checker.on_run_begin(graph, platform, "replay");
  for (const sim::InspectorEvent& event : trace.events) {
    checker.on_event(event);
    if (!checker.ok()) break;
  }
  checker.finish();
  return ValidationResult{checker.report().ok, checker.report().error};
}

}  // namespace mg::analysis
