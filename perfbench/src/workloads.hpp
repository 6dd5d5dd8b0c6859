// The benchmark's workloads. Each is a fixed list of simulator runs whose
// inputs (graphs, job specs, arrival times, scheduler seeds) are generated
// from the benchmark's --seed; one *pass* executes every run of the list
// once, back to back, on one thread.
//
//   fig08-dynamic   Fig. 8's 3 976 MB point (matmul2d N=142, 4 GPUs x
//                   500 MB) under EAGER, DMDAR and DARTS+LUF, no inspector.
//   fig11-partition Fig. 11's Cholesky N=28 task set under hMETIS+R and
//                   DARTS+LUF-3inputs, then matmul2d N=64 under hMETIS+R.
//   serve-cluster   2 000 streamed matmul2d N=8 jobs on 2 nodes x 2 GPUs x
//                   150 MB, two SLO tiers, cross-job batching, under DMDAR
//                   and DARTS+LUF with the invariant checker and the run
//                   report collector attached and the report serialized.
//
// A pass is either untraced (what users run) or traced: every scheduler,
// eviction policy and inspector is wrapped in a forwarding decorator
// (decorators.hpp), the batch runs additionally carry the invariant checker
// and the report collector, and every hMETIS+R run is followed by a timed
// direct call to the partitioner.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "decorators.hpp"

namespace perfbench {

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Per-run host-time split of a traced pass (seconds unless noted).
struct LayerRecord {
  double run_s = 0.0;        ///< the run span: engine.run() + serialization
  double prepare_s = 0.0;
  double pop_s = 0.0;
  SchedulerStats sched;
  std::vector<double> pop_us;  ///< every pop_task duration, microseconds
  double choose_s = 0.0;
  EvictionStats evict;
  HookTally checker;
  HookTally collector;
  std::uint64_t inspector_events = 0;  ///< events the checker saw
  double serialize_s = 0.0;
  double partition_s = 0.0;  ///< hMETIS+R runs: direct build + partition call
};

/// Simulated outcome of one run: every field repeats exactly for a given
/// seed, across passes and between the traced and untraced pass.
struct SimRecord {
  std::uint64_t events = 0;
  std::uint64_t tasks_expected = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
  double host_mb = 0.0;
  double floor_mb = 0.0;  ///< every distinct data loaded once
  double gflops = 0.0;
  double makespan_ms = 0.0;
  double stall_frac = 0.0;  ///< GPU idle-while-work-remained share
  // hMETIS+R runs only: quality of the partition the scheduler used.
  std::uint64_t connectivity = 0;  ///< connectivity-1 (extra data copies)
  double imbalance = 0.0;
  // Serving runs only.
  std::uint32_t jobs = 0;
  std::uint32_t jobs_completed = 0;
  std::uint32_t jobs_shed = 0;
  std::uint32_t deadline_misses = 0;
  double job_p99_ms = 0.0;
  double hi_p99_ms = 0.0;
  std::uint32_t peak_queue_depth = 0;
  double reuse_mb = 0.0;
  std::uint64_t jobs_fused = 0;
  std::uint64_t super_tasks = 0;

  friend bool operator==(const SimRecord&, const SimRecord&) = default;
};

/// Report-derived figures (available whenever a collector rode the run).
struct ReportRecord {
  double bus_occupancy = 0.0;  ///< mean over host->GPU channels
  double prefetch_hit_rate = 0.0;
  double busy_imbalance = 0.0;
  std::uint64_t net_transfers = 0;
  double net_mb = 0.0;
  std::uint64_t host_cache_evictions = 0;
};

struct RunRecord {
  std::string label;  ///< scheduler @ workload point
  bool failed = false;
  std::string error;  ///< why it failed (engine error, check)
  double setup_s = 0.0;  ///< scheduler + engine construction
  double wall_s = 0.0;   ///< engine.run() (+ report serialization)
  SimRecord sim;
  ReportRecord report;
  std::string report_json;  ///< run_report_to_json, when collected
  LayerRecord layers;       ///< traced passes only
};

struct PassResult {
  double gen_s = 0.0;    ///< input generation (graphs, job specs)
  double setup_s = 0.0;  ///< gen_s + every run's construction
  double wall_s = 0.0;   ///< summed run walls
  std::vector<RunRecord> runs;
};

struct PassOptions {
  Tracer* tracer = nullptr;  ///< non-null = traced pass
  /// Attach a report collector to every run (and keep its JSON) even when
  /// untraced; the identity test compares these reports.
  bool collect_reports = false;
};

/// Runs one pass of workload `name` (one of workload_names()).
[[nodiscard]] PassResult run_pass(std::string_view name, std::uint64_t seed,
                                  const PassOptions& options);

}  // namespace perfbench
