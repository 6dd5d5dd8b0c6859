#include "sim/run_report.hpp"

#include <algorithm>
#include <cstdio>

#include "util/json.hpp"

namespace mg::sim {

namespace {

void write_run_report(util::json::Writer& json, const RunReport& report) {
  json.begin_object()
      .field("schema_version", RunReport::kSchemaVersion)
      .field("scheduler", report.scheduler)
      .field("context", report.context);

  json.key("platform")
      .begin_object()
      .field("num_gpus", report.num_gpus)
      .field("gpu_memory_bytes", report.gpu_memory_bytes)
      .field("bus_bandwidth_bytes_per_s", report.bus_bandwidth_bytes_per_s)
      .field("nvlink", report.nvlink)
      .end_object();

  json.field("makespan_us", report.makespan_us)
      .field("total_flops", report.total_flops)
      .field("achieved_gflops", report.achieved_gflops);

  json.key("per_gpu").begin_array();
  for (std::size_t gpu = 0; gpu < report.per_gpu.size(); ++gpu) {
    const RunReport::Gpu& g = report.per_gpu[gpu];
    json.begin_object()
        .field("gpu", gpu)
        .field("tasks_executed", g.tasks_executed)
        .field("busy_us", g.busy_us)
        .field("loads", g.loads)
        .field("peer_loads", g.peer_loads)
        .field("bytes_loaded", g.bytes_loaded)
        .field("evictions", g.evictions)
        .field("peak_committed_bytes", g.peak_committed_bytes)
        .field("eviction_policy", g.eviction_policy)
        .end_object();
  }
  json.end_array();

  json.key("load_balance")
      .begin_object()
      .field("max_tasks", report.load_balance.max_tasks)
      .field("min_tasks", report.load_balance.min_tasks)
      .field("mean_tasks", report.load_balance.mean_tasks)
      .field("busy_imbalance", report.load_balance.busy_imbalance)
      .end_object();

  json.key("channels").begin_array();
  for (const RunReport::Channel& channel : report.channels) {
    json.begin_object()
        .field("name", channel.name)
        .field("transfers", channel.transfers)
        .field("bytes", channel.bytes)
        .field("busy_us", channel.busy_us)
        .field("occupancy", channel.occupancy)
        .key("occupancy_buckets")
        .begin_array();
    for (double fraction : channel.occupancy_buckets) json.value(fraction);
    json.end_array().end_object();
  }
  json.end_array();

  json.key("prefetch")
      .begin_object()
      .field("demand_fetches", report.prefetch.demand_fetches)
      .field("prefetch_fetches", report.prefetch.prefetch_fetches)
      .field("hit_rate", report.prefetch.hit_rate)
      .end_object();

  json.key("evictions_by_policy").begin_object();
  for (const auto& [policy, count] : report.evictions_by_policy) {
    json.field(policy, count);
  }
  json.end_object();

  const RunReport::Faults& faults = report.faults;
  json.key("faults")
      .begin_object()
      .field("gpu_losses", faults.gpu_losses)
      .field("capacity_shocks", faults.capacity_shocks)
      .field("tasks_reclaimed", faults.tasks_reclaimed)
      .field("transfer_retries", faults.transfer_retries)
      .field("wasted_transfer_bytes", faults.wasted_transfer_bytes)
      .key("recovery_latency_us")
      .begin_array();
  for (double latency : faults.recovery_latency_us) json.value(latency);
  json.end_array()
      .field("max_recovery_latency_us", faults.max_recovery_latency_us)
      .key("adoptions")
      .begin_array();
  for (const RunReport::Faults::Adoption& adoption : faults.adoptions) {
    json.begin_object()
        .field("task", adoption.task)
        .field("from_gpu", adoption.from_gpu)
        .field("to_gpu", adoption.to_gpu)
        .end_object();
  }
  json.end_array();

  const RunReport::Faults::Checkpoints& checkpoints = faults.checkpoints;
  json.key("checkpoints")
      .begin_object()
      .field("taken", checkpoints.taken)
      .field("payload_bytes", checkpoints.payload_bytes)
      .field("overhead_us", checkpoints.overhead_us)
      .field("tasks_restored", checkpoints.tasks_restored)
      .field("compute_saved_us", checkpoints.compute_saved_us)
      .end_object();

  const RunReport::Faults::Replicas& replicas = faults.replicas;
  json.key("replicas")
      .begin_object()
      .field("created", replicas.created)
      .field("bytes", replicas.bytes)
      .field("shed", replicas.shed)
      .field("protected_sole_survivor", replicas.protected_sole_survivor)
      .field("released", replicas.released)
      .field("post_loss_host_loads", replicas.post_loss_host_loads)
      .end_object();

  json.key("replay_divergence").begin_array();
  for (const RunReport::Faults::ReplayDivergenceEntry& entry :
       faults.replay_divergence) {
    json.begin_object()
        .field("gpu", entry.gpu)
        .field("divergence_index", entry.divergence_index)
        .field("reassigned_tasks", entry.reassigned_tasks)
        .end_object();
  }
  json.end_array().end_object();

  const RunReport::Serving& serving = report.serving;
  json.key("serving")
      .begin_object()
      .field("enabled", serving.enabled)
      .field("arrival", serving.arrival)
      .field("jobs_submitted", serving.jobs_submitted)
      .field("jobs_completed", serving.jobs_completed)
      .field("jobs_shed", serving.jobs_shed)
      .field("throughput_jobs_per_s", serving.throughput_jobs_per_s)
      .field("latency_p50_us", serving.latency_p50_us)
      .field("latency_p95_us", serving.latency_p95_us)
      .field("latency_p99_us", serving.latency_p99_us)
      .field("latency_mean_us", serving.latency_mean_us)
      .field("latency_max_us", serving.latency_max_us)
      .field("deadline_hits", serving.deadline_hits)
      .field("deadline_misses", serving.deadline_misses)
      .field("deadline_miss_rate", serving.deadline_miss_rate)
      .field("cross_job_reuse_bytes", serving.cross_job_reuse_bytes)
      .field("cross_job_reuse_hits", serving.cross_job_reuse_hits)
      .field("peak_jobs_in_flight", serving.peak_jobs_in_flight)
      .field("peak_queue_depth", serving.peak_queue_depth)
      .key("queue_depth_timeline")
      .begin_array();
  for (const auto& [time_us, depth] : serving.queue_depth_timeline) {
    json.begin_array().value(time_us).value(depth).end_array();
  }
  json.end_array().end_object();

  const RunReport::Cluster& cluster = report.cluster;
  json.key("cluster")
      .begin_object()
      .field("enabled", cluster.enabled)
      .field("num_nodes", cluster.num_nodes)
      .key("per_node")
      .begin_array();
  for (std::size_t node = 0; node < cluster.per_node.size(); ++node) {
    const RunReport::Cluster::Node& n = cluster.per_node[node];
    json.begin_object()
        .field("node", node)
        .field("gpu_begin", n.gpu_begin)
        .field("gpu_end", n.gpu_end)
        .field("tasks_executed", n.tasks_executed)
        .field("busy_us", n.busy_us)
        .field("loads", n.loads)
        .field("bytes_loaded", n.bytes_loaded)
        .field("remote_fetches", n.remote_fetches)
        .field("host_cache_fills", n.host_cache_fills)
        .field("host_cache_evictions", n.host_cache_evictions)
        .end_object();
  }
  json.end_array()
      .field("network_transfers", cluster.network_transfers)
      .field("network_bytes", cluster.network_bytes)
      .field("host_cache_fills", cluster.host_cache_fills)
      .field("host_cache_evictions", cluster.host_cache_evictions)
      .field("steals", cluster.steals)
      .end_object();

  const RunReport::Dependencies& deps = report.dependencies;
  json.key("dependencies")
      .begin_object()
      .field("enabled", deps.enabled)
      .field("explicit_edges", deps.explicit_edges)
      .field("raw_edges", deps.raw_edges)
      .field("war_edges", deps.war_edges)
      .field("waw_edges", deps.waw_edges)
      .field("total_edges", deps.total_edges)
      .field("critical_path_length", deps.critical_path_length)
      .field("max_ready_width", deps.max_ready_width)
      .field("tasks_enabled", deps.tasks_enabled)
      .field("edges_released", deps.edges_released)
      .field("tasks_unretired", deps.tasks_unretired)
      .end_object();

  const RunReport::Autoscaling& scaling = report.autoscaling;
  json.key("autoscaling")
      .begin_object()
      .field("enabled", scaling.enabled)
      .field("scale_out_events", scaling.scale_out_events)
      .field("scale_in_events", scaling.scale_in_events)
      .field("nodes_drained", scaling.nodes_drained)
      .field("nodes_joined", scaling.nodes_joined)
      .field("node_losses", scaling.node_losses)
      .field("tasks_drained", scaling.tasks_drained)
      .field("migrations", scaling.migrations)
      .field("migrated_bytes", scaling.migrated_bytes)
      .field("warm_fills", scaling.warm_fills)
      .field("warm_fill_bytes", scaling.warm_fill_bytes)
      .field("drain_latency_total_us", scaling.drain_latency_total_us)
      .field("drain_latency_max_us", scaling.drain_latency_max_us)
      .end_object();

  const RunReport::Occupancy& occupancy = report.occupancy;
  json.key("occupancy")
      .begin_object()
      .field("enabled", occupancy.enabled)
      .field("threshold", occupancy.threshold)
      .field("total_warps", occupancy.total_warps)
      .field("budget_warps", occupancy.budget_warps)
      .key("per_gpu")
      .begin_array();
  for (std::size_t gpu = 0; gpu < occupancy.per_gpu.size(); ++gpu) {
    json.begin_object()
        .field("gpu", gpu)
        .field("peak_warps", occupancy.per_gpu[gpu].peak_warps)
        .field("mean_occupancy", occupancy.per_gpu[gpu].mean_occupancy)
        .end_object();
  }
  json.end_array()
      .field("admissions", occupancy.admissions)
      .field("rejections", occupancy.rejections)
      .field("co_run_pairs", occupancy.co_run_pairs)
      .end_object();

  const RunReport::NetworkFaults& net = report.network_faults;
  json.key("network_faults")
      .begin_object()
      .field("enabled", net.enabled)
      .field("link_degradations", net.link_degradations)
      .field("link_partitions", net.link_partitions)
      .field("link_heals", net.link_heals)
      .field("fetch_timeouts", net.fetch_timeouts)
      .field("hedged_fetches", net.hedged_fetches)
      .field("hedges_wasted", net.hedges_wasted)
      .field("hedge_wasted_bytes", net.hedge_wasted_bytes)
      .field("nodes_suspected", net.nodes_suspected)
      .field("suspicions_cleared", net.suspicions_cleared)
      .field("suspicions_escalated", net.suspicions_escalated)
      .end_object();

  const RunReport::Slo& slo = report.slo;
  json.key("slo")
      .begin_object()
      .field("enabled", slo.enabled)
      .field("tiers", slo.tiers)
      .field("jobs_fused", slo.jobs_fused)
      .field("super_tasks", slo.super_tasks)
      .field("batches_unfused", slo.batches_unfused)
      .field("evictions_vetoed", slo.evictions_vetoed)
      .field("protections", slo.protections)
      .key("per_tier")
      .begin_array();
  for (const RunReport::Slo::Tier& tier : slo.per_tier) {
    json.begin_object()
        .field("tier", tier.tier)
        .field("jobs", tier.jobs)
        .field("p50_us", tier.p50_us)
        .field("p95_us", tier.p95_us)
        .field("p99_us", tier.p99_us)
        .field("deadline_misses", tier.deadline_misses)
        .end_object();
  }
  json.end_array().end_object();
  json.end_object();
}

}  // namespace

std::string run_report_to_json(const RunReport& report) {
  std::string out;
  util::json::Writer json(out);
  write_run_report(json, report);
  return out;
}

bool write_run_reports(const std::vector<RunReport>& reports,
                       const std::string& context, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string out;
  util::json::Writer json(out);
  json.begin_object()
      .field("schema_version", RunReport::kSchemaVersion)
      .field("context", context)
      .key("runs")
      .begin_array(util::json::Writer::kLines);
  for (const RunReport& report : reports) write_run_report(json, report);
  json.end_array().end_object();
  out += '\n';
  const bool ok = std::fputs(out.c_str(), file) >= 0 && std::fflush(file) == 0;
  std::fclose(file);
  return ok;
}

RunReportCollector::RunReportCollector() : RunReportCollector(Options{}) {}

RunReportCollector::RunReportCollector(Options options)
    : options_(std::move(options)) {}

void RunReportCollector::on_run_begin(const core::TaskGraph& graph,
                                      const core::Platform& platform,
                                      std::string_view scheduler_name) {
  graph_ = &graph;
  platform_ = platform;
  report_ = RunReport{};
  report_.scheduler = std::string(scheduler_name);
  report_.context = options_.context;
  report_.num_gpus = platform.num_gpus;
  report_.gpu_memory_bytes = platform.gpu_memory_bytes;
  report_.bus_bandwidth_bytes_per_s = platform.bus_bandwidth_bytes_per_s;
  report_.nvlink = platform.nvlink_enabled;
  report_.total_flops = graph.total_flops();
  report_.per_gpu.assign(platform.num_gpus, RunReport::Gpu{});
  if (platform.is_cluster()) {
    report_.cluster.enabled = true;
    report_.cluster.num_nodes = platform.num_nodes;
    report_.cluster.per_node.assign(platform.num_nodes,
                                    RunReport::Cluster::Node{});
    for (core::NodeId node = 0; node < platform.num_nodes; ++node) {
      report_.cluster.per_node[node].gpu_begin = platform.node_gpu_begin(node);
      report_.cluster.per_node[node].gpu_end = platform.node_gpu_end(node);
    }
  }
  if (graph.has_dependencies()) {
    report_.dependencies.enabled = true;
    const core::DepEdgeCounts& counts = graph.dependency_edge_counts();
    report_.dependencies.explicit_edges = counts.explicit_edges;
    report_.dependencies.raw_edges = counts.raw;
    report_.dependencies.war_edges = counts.war;
    report_.dependencies.waw_edges = counts.waw;
    report_.dependencies.total_edges = counts.total;
    report_.dependencies.critical_path_length = graph.critical_path_length();
    dep_pending_.assign(graph.num_tasks(), 0);
    dep_counted_ready_.assign(graph.num_tasks(), false);
    dep_started_.assign(graph.num_tasks(), false);
    for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
      dep_pending_[task] = graph.num_predecessors(task);
    }
  } else {
    dep_pending_.clear();
    dep_counted_ready_.clear();
    dep_started_.clear();
  }
  ready_width_ = 0;
  channels_.assign(inspector_channel_count(platform), ChannelState{});
  gpu_scratch_.assign(platform.num_gpus, GpuScratch{});
  pending_recoveries_.clear();
  pending_adoptions_.clear();
  drain_open_us_.clear();
  occ_armed_ = false;
  occ_.clear();
  occ_task_warps_.clear();
  trace_.events.clear();
}

void RunReportCollector::occ_accrue(OccLoad& load, double now_us) {
  if (now_us > load.last_change_us) {
    load.integral += static_cast<double>(load.active_warps) *
                     (now_us - load.last_change_us);
    load.last_change_us = now_us;
  }
}

// Drops every co-runner of `gpu` at once (GPU/node loss): the engine
// reclaims the whole running set, so the busy window and active warps
// close here rather than at per-task kTaskEnd events that never come.
void RunReportCollector::occ_close_gpu(std::uint32_t gpu, double now_us) {
  OccLoad& load = occ_[gpu];
  occ_accrue(load, now_us);
  load.active_warps = 0;
  if (load.running > 0) {
    load.running = 0;
    report_.per_gpu[gpu].busy_us += now_us - load.busy_open_us;
  }
}

void RunReportCollector::on_eviction_policy(core::GpuId gpu,
                                            std::string_view policy_name) {
  if (gpu < report_.per_gpu.size()) {
    report_.per_gpu[gpu].eviction_policy = std::string(policy_name);
  }
}

void RunReportCollector::on_event(const InspectorEvent& event) {
  if (options_.collect_trace) trace_.on_event(event);
  RunReport::Gpu& gpu = report_.per_gpu[event.gpu];
  GpuScratch& scratch = gpu_scratch_[event.gpu];
  switch (event.kind) {
    case InspectorEventKind::kFetchStart:
      if (event.aux != 0) {
        ++report_.prefetch.demand_fetches;
      } else {
        ++report_.prefetch.prefetch_fetches;
      }
      scratch.committed += event.bytes;
      scratch.peak_committed =
          std::max(scratch.peak_committed, scratch.committed);
      break;
    case InspectorEventKind::kLoadComplete:
      if (event.aux != 0) {
        ++gpu.peer_loads;
      } else {
        ++gpu.loads;
        if (report_.faults.gpu_losses > 0) {
          ++report_.faults.replicas.post_loss_host_loads;
        }
      }
      gpu.bytes_loaded += graph_->data_size(event.id);
      break;
    case InspectorEventKind::kEvict:
      ++gpu.evictions;
      scratch.committed -= graph_->data_size(event.id);
      break;
    case InspectorEventKind::kScratchReserve:
      scratch.committed += event.bytes;
      scratch.peak_committed =
          std::max(scratch.peak_committed, scratch.committed);
      break;
    case InspectorEventKind::kScratchRelease:
      scratch.committed -= std::min(scratch.committed, event.bytes);
      break;
    case InspectorEventKind::kTransferStart: {
      ChannelState& channel = channels_[event.channel];
      ++channel.transfers;
      channel.bytes += event.bytes;
      channel.open_since_us = event.time_us;
      break;
    }
    case InspectorEventKind::kTransferEnd: {
      ChannelState& channel = channels_[event.channel];
      if (channel.open_since_us >= 0.0) {
        channel.busy_us += event.time_us - channel.open_since_us;
        channel.intervals.emplace_back(channel.open_since_us, event.time_us);
        channel.open_since_us = -1.0;
      }
      break;
    }
    case InspectorEventKind::kWriteBackStart:
    case InspectorEventKind::kWriteBackEnd:
      break;
    case InspectorEventKind::kTaskStart: {
      scratch.task_open_us = event.time_us;
      // A reclaimed task starting again closes its adoption attribution:
      // `event.gpu` is the survivor that absorbed it.
      auto adoption = pending_adoptions_.find(event.id);
      if (adoption != pending_adoptions_.end()) {
        report_.faults.adoptions.push_back(
            {event.id, adoption->second, event.gpu});
        pending_adoptions_.erase(adoption);
      }
      if (event.id < dep_started_.size()) {
        dep_started_[event.id] = true;
        if (dep_counted_ready_[event.id]) {
          dep_counted_ready_[event.id] = false;
          --ready_width_;
        }
      }
      break;
    }
    case InspectorEventKind::kTaskEnd:
      ++gpu.tasks_executed;
      if (occ_armed_) {
        // Sharing mode: busy time is the wall time the running set stays
        // non-empty, not summed task spans (co-runners would double-count).
        OccLoad& load = occ_[event.gpu];
        occ_accrue(load, event.time_us);
        const std::uint32_t warps =
            event.id < occ_task_warps_.size() ? occ_task_warps_[event.id] : 0;
        load.active_warps -= std::min(load.active_warps, warps);
        if (load.running > 0 && --load.running == 0) {
          gpu.busy_us += event.time_us - load.busy_open_us;
        }
      } else {
        gpu.busy_us += event.time_us - scratch.task_open_us;
      }
      // A finished task closes any recovery still waiting on it.
      for (std::size_t i = 0; i < pending_recoveries_.size();) {
        PendingRecovery& pending = pending_recoveries_[i];
        auto it = std::find(pending.outstanding.begin(),
                            pending.outstanding.end(), event.id);
        if (it != pending.outstanding.end()) pending.outstanding.erase(it);
        if (pending.outstanding.empty()) {
          report_.faults.recovery_latency_us.push_back(event.time_us -
                                                       pending.loss_time_us);
          pending_recoveries_.erase(pending_recoveries_.begin() +
                                    static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      break;
    case InspectorEventKind::kGpuLost:
      ++report_.faults.gpu_losses;
      if (occ_armed_) occ_close_gpu(event.gpu, event.time_us);
      if (event.aux == 0) {
        // Nothing was orphaned: recovery is instantaneous.
        report_.faults.recovery_latency_us.push_back(0.0);
      } else {
        pending_recoveries_.push_back({event.time_us, {}});
      }
      break;
    case InspectorEventKind::kCapacityShock:
      ++report_.faults.capacity_shocks;
      break;
    case InspectorEventKind::kTransferRetry:
      ++report_.faults.transfer_retries;
      report_.faults.wasted_transfer_bytes += event.bytes;
      break;
    case InspectorEventKind::kTaskReclaimed:
      ++report_.faults.tasks_reclaimed;
      if (!pending_recoveries_.empty()) {
        pending_recoveries_.back().outstanding.push_back(event.id);
      }
      // `event.gpu` is the dead GPU; the attribution closes at the task's
      // next start. A second loss of the same (re-reclaimed) task just
      // refreshes the origin.
      pending_adoptions_[event.id] = event.gpu;
      break;
    case InspectorEventKind::kNotifyTaskComplete:
    case InspectorEventKind::kNotifyDataLoaded:
    case InspectorEventKind::kNotifyDataEvicted:
    case InspectorEventKind::kNotifyGpuLost:
      break;
    case InspectorEventKind::kJobArrival:
    case InspectorEventKind::kJobComplete:
    case InspectorEventKind::kJobShed:
    case InspectorEventKind::kTaskReleased:
    case InspectorEventKind::kTaskCancelled:
      // Serving statistics are computed by serve::JobTracker and merged into
      // the report by serve::ServeEngine.
      break;
    case InspectorEventKind::kCheckpoint:
      ++report_.faults.checkpoints.taken;
      report_.faults.checkpoints.payload_bytes += event.bytes;
      // Bus time the snapshot drain occupies on the write-back channel —
      // the same overhead model the engine accounts.
      report_.faults.checkpoints.overhead_us +=
          platform_.bus_latency_us +
          static_cast<double>(event.bytes) /
              platform_.bus_bandwidth_bytes_per_s * 1e6;
      break;
    case InspectorEventKind::kProgressRestored:
      ++report_.faults.checkpoints.tasks_restored;
      report_.faults.checkpoints.compute_saved_us +=
          static_cast<double>(event.aux) / 1e6 *
          platform_.compute_time_us(graph_->task_flops(event.id), event.gpu);
      break;
    case InspectorEventKind::kReplicaCreate:
      ++report_.faults.replicas.created;
      report_.faults.replicas.bytes += event.bytes;
      break;
    case InspectorEventKind::kReplicaShed:
      ++report_.faults.replicas.shed;
      break;
    case InspectorEventKind::kReplicaProtect:
      ++report_.faults.replicas.protected_sole_survivor;
      break;
    case InspectorEventKind::kReplicaRelease:
      ++report_.faults.replicas.released;
      break;
    case InspectorEventKind::kReplayDivergence:
      report_.faults.replay_divergence.push_back(
          {event.gpu, event.id, event.aux});
      break;
    case InspectorEventKind::kHostFetchStart:
      if (event.aux < report_.cluster.per_node.size()) {
        ++report_.cluster.per_node[event.aux].remote_fetches;
      }
      break;
    case InspectorEventKind::kHostCacheFill:
      ++report_.cluster.host_cache_fills;
      if (event.aux < report_.cluster.per_node.size()) {
        ++report_.cluster.per_node[event.aux].host_cache_fills;
      }
      break;
    case InspectorEventKind::kHostCacheEvict:
      ++report_.cluster.host_cache_evictions;
      if (event.aux < report_.cluster.per_node.size()) {
        ++report_.cluster.per_node[event.aux].host_cache_evictions;
      }
      break;
    case InspectorEventKind::kEdgeReleased:
      ++report_.dependencies.edges_released;
      if (event.aux < dep_pending_.size() && dep_pending_[event.aux] > 0) {
        --dep_pending_[event.aux];
      }
      break;
    case InspectorEventKind::kTaskEnabled:
      ++report_.dependencies.tasks_enabled;
      if (event.id < dep_counted_ready_.size() &&
          !dep_counted_ready_[event.id] && !dep_started_[event.id]) {
        dep_counted_ready_[event.id] = true;
        ++ready_width_;
        report_.dependencies.max_ready_width =
            std::max(report_.dependencies.max_ready_width,
                     static_cast<std::uint32_t>(ready_width_));
      }
      break;
    case InspectorEventKind::kTaskUnretired:
      ++report_.dependencies.tasks_unretired;
      // The completion on the dead GPU rolls back; the re-run on a survivor
      // counts instead (its busy time stays — the compute really happened).
      ++report_.faults.tasks_reclaimed;
      if (gpu.tasks_executed > 0) --gpu.tasks_executed;
      if (!pending_recoveries_.empty()) {
        pending_recoveries_.back().outstanding.push_back(event.id);
      }
      pending_adoptions_[event.id] = event.gpu;
      if (event.id < dep_started_.size()) {
        // The task re-enters the ready frontier (its own predecessors are
        // still retired); successors it had enabled leave it.
        dep_started_[event.id] = false;
        if (!dep_counted_ready_[event.id]) {
          dep_counted_ready_[event.id] = true;
          ++ready_width_;
          report_.dependencies.max_ready_width =
              std::max(report_.dependencies.max_ready_width,
                       static_cast<std::uint32_t>(ready_width_));
        }
        for (core::TaskId succ : graph_->successors(event.id)) {
          const bool was_zero = dep_pending_[succ]++ == 0;
          if (was_zero && dep_counted_ready_[succ]) {
            dep_counted_ready_[succ] = false;
            --ready_width_;
          }
        }
      }
      break;
    case InspectorEventKind::kNodeDrainStart:
      report_.autoscaling.enabled = true;
      drain_open_us_[event.id] = event.time_us;
      break;
    case InspectorEventKind::kTaskDrained:
      ++report_.autoscaling.tasks_drained;
      break;
    case InspectorEventKind::kDataMigrateStart:
      break;
    case InspectorEventKind::kDataMigrated:
      ++report_.autoscaling.migrations;
      report_.autoscaling.migrated_bytes += event.bytes;
      break;
    case InspectorEventKind::kNodeDrained: {
      ++report_.autoscaling.nodes_drained;
      auto open = drain_open_us_.find(event.id);
      const double latency =
          open != drain_open_us_.end() ? event.time_us - open->second : 0.0;
      if (open != drain_open_us_.end()) drain_open_us_.erase(open);
      report_.autoscaling.drain_latency_total_us += latency;
      report_.autoscaling.drain_latency_max_us =
          std::max(report_.autoscaling.drain_latency_max_us, latency);
      break;
    }
    case InspectorEventKind::kNodeJoinStart:
      report_.autoscaling.enabled = true;
      break;
    case InspectorEventKind::kNodeWarmFill:
      ++report_.autoscaling.warm_fills;
      report_.autoscaling.warm_fill_bytes += event.bytes;
      break;
    case InspectorEventKind::kNodeJoined:
      ++report_.autoscaling.nodes_joined;
      break;
    case InspectorEventKind::kNodeLost:
      report_.autoscaling.enabled = true;
      ++report_.autoscaling.node_losses;
      // The node's GPUs all died, but the loss recovers in one pass: the
      // per-GPU loss tally grows by the node's span while a single
      // recovery-latency entry tracks the combined orphan re-run.
      report_.faults.gpu_losses += platform_.node_gpu_end(event.id) -
                                   platform_.node_gpu_begin(event.id);
      if (occ_armed_) {
        for (std::uint32_t g = platform_.node_gpu_begin(event.id);
             g < platform_.node_gpu_end(event.id); ++g) {
          occ_close_gpu(g, event.time_us);
        }
      }
      if (event.aux == 0) {
        report_.faults.recovery_latency_us.push_back(0.0);
      } else {
        pending_recoveries_.push_back({event.time_us, {}});
      }
      break;
    case InspectorEventKind::kOccupancyConfig:
      report_.occupancy.enabled = true;
      report_.occupancy.threshold = static_cast<double>(event.aux) / 1e6;
      report_.occupancy.total_warps = event.id;
      report_.occupancy.budget_warps = static_cast<std::uint32_t>(event.bytes);
      report_.occupancy.per_gpu.assign(report_.per_gpu.size(),
                                       RunReport::Occupancy::Gpu{});
      occ_armed_ = true;
      occ_.assign(report_.per_gpu.size(), OccLoad{});
      occ_task_warps_.assign(graph_->num_tasks(), 0);
      break;
    case InspectorEventKind::kTaskAdmitted: {
      OccLoad& load = occ_[event.gpu];
      occ_accrue(load, event.time_us);
      report_.occupancy.co_run_pairs += load.running;
      if (load.running == 0) load.busy_open_us = event.time_us;
      ++load.running;
      load.active_warps += static_cast<std::uint32_t>(event.bytes);
      if (event.id < occ_task_warps_.size()) {
        occ_task_warps_[event.id] = static_cast<std::uint32_t>(event.bytes);
      }
      RunReport::Occupancy::Gpu& occ_gpu = report_.occupancy.per_gpu[event.gpu];
      occ_gpu.peak_warps = std::max(occ_gpu.peak_warps, load.active_warps);
      ++report_.occupancy.admissions;
      break;
    }
    case InspectorEventKind::kAdmissionRejected:
      ++report_.occupancy.rejections;
      break;
    case InspectorEventKind::kLinkDegraded:
      report_.network_faults.enabled = true;
      ++report_.network_faults.link_degradations;
      break;
    case InspectorEventKind::kLinkPartitioned:
      report_.network_faults.enabled = true;
      ++report_.network_faults.link_partitions;
      break;
    case InspectorEventKind::kLinkRestored:
      ++report_.network_faults.link_heals;
      break;
    case InspectorEventKind::kFetchTimeout:
      report_.network_faults.enabled = true;
      ++report_.network_faults.fetch_timeouts;
      break;
    case InspectorEventKind::kFetchHedged:
      ++report_.network_faults.hedged_fetches;
      break;
    case InspectorEventKind::kHedgeWasted:
      ++report_.network_faults.hedges_wasted;
      report_.network_faults.hedge_wasted_bytes += event.bytes;
      break;
    case InspectorEventKind::kNodeSuspected:
      report_.network_faults.enabled = true;
      ++report_.network_faults.nodes_suspected;
      break;
    case InspectorEventKind::kNodeSuspicionCleared:
      ++report_.network_faults.suspicions_cleared;
      break;
    case InspectorEventKind::kNodeSuspicionEscalated:
      ++report_.network_faults.suspicions_escalated;
      break;
    case InspectorEventKind::kJobsFused:
      report_.slo.enabled = true;
      ++report_.slo.jobs_fused;
      break;
    case InspectorEventKind::kSuperTaskLaunched:
      report_.slo.enabled = true;
      ++report_.slo.super_tasks;
      break;
    case InspectorEventKind::kBatchUnfused:
      ++report_.slo.batches_unfused;
      break;
    case InspectorEventKind::kEvictionVetoed:
      report_.slo.enabled = true;
      ++report_.slo.evictions_vetoed;
      break;
    case InspectorEventKind::kTierProtect:
      report_.slo.enabled = true;
      ++report_.slo.protections;
      break;
    case InspectorEventKind::kTierUnprotect:
      break;
  }
}

void RunReportCollector::on_run_end(double makespan_us) {
  report_.makespan_us = makespan_us;
  report_.achieved_gflops =
      makespan_us > 0.0 ? report_.total_flops / (makespan_us * 1e3) : 0.0;

  // Recoveries whose orphans never re-ran close at run end (defensive: the
  // engine guarantees orphans re-run, so this only fires on partial runs).
  for (const PendingRecovery& pending : pending_recoveries_) {
    report_.faults.recovery_latency_us.push_back(makespan_us -
                                                 pending.loss_time_us);
  }
  pending_recoveries_.clear();
  for (double latency : report_.faults.recovery_latency_us) {
    report_.faults.max_recovery_latency_us =
        std::max(report_.faults.max_recovery_latency_us, latency);
  }

  // Load balance.
  std::uint64_t max_tasks = 0;
  std::uint64_t min_tasks = ~std::uint64_t{0};
  std::uint64_t total_tasks = 0;
  double max_busy = 0.0;
  double total_busy = 0.0;
  for (std::size_t gpu = 0; gpu < report_.per_gpu.size(); ++gpu) {
    RunReport::Gpu& g = report_.per_gpu[gpu];
    g.peak_committed_bytes = gpu_scratch_[gpu].peak_committed;
    max_tasks = std::max(max_tasks, g.tasks_executed);
    min_tasks = std::min(min_tasks, g.tasks_executed);
    total_tasks += g.tasks_executed;
    max_busy = std::max(max_busy, g.busy_us);
    total_busy += g.busy_us;
    if (!g.eviction_policy.empty() || g.evictions > 0) {
      report_.evictions_by_policy[g.eviction_policy.empty()
                                      ? "unknown"
                                      : g.eviction_policy] += g.evictions;
    }
  }
  const double num_gpus = static_cast<double>(report_.per_gpu.size());
  report_.load_balance.max_tasks = max_tasks;
  report_.load_balance.min_tasks =
      report_.per_gpu.empty() ? 0 : min_tasks;
  report_.load_balance.mean_tasks =
      num_gpus > 0.0 ? static_cast<double>(total_tasks) / num_gpus : 0.0;
  const double mean_busy = num_gpus > 0.0 ? total_busy / num_gpus : 0.0;
  report_.load_balance.busy_imbalance =
      mean_busy > 0.0 ? max_busy / mean_busy : 0.0;

  // Prefetch hit rate.
  const std::uint64_t fetches =
      report_.prefetch.demand_fetches + report_.prefetch.prefetch_fetches;
  report_.prefetch.hit_rate =
      fetches > 0 ? static_cast<double>(report_.prefetch.prefetch_fetches) /
                        static_cast<double>(fetches)
                  : 0.0;

  // Channels: close any transfer still on a wire at run end, then bucket.
  report_.channels.clear();
  for (std::size_t index = 0; index < channels_.size(); ++index) {
    ChannelState& state = channels_[index];
    if (state.open_since_us >= 0.0) {
      state.busy_us += makespan_us - state.open_since_us;
      state.intervals.emplace_back(state.open_since_us, makespan_us);
      state.open_since_us = -1.0;
    }
    if (state.transfers == 0 && index != kChannelHostBus) continue;
    RunReport::Channel channel;
    channel.name = inspector_channel_name(static_cast<std::uint32_t>(index));
    channel.transfers = state.transfers;
    channel.bytes = state.bytes;
    channel.busy_us = state.busy_us;
    channel.occupancy = makespan_us > 0.0 ? state.busy_us / makespan_us : 0.0;
    const std::uint32_t buckets = std::max(1u, options_.occupancy_buckets);
    channel.occupancy_buckets.assign(buckets, 0.0);
    if (makespan_us > 0.0) {
      const double width = makespan_us / buckets;
      for (const auto& [begin, end] : state.intervals) {
        const double clipped_end = std::min(end, makespan_us);
        std::size_t bucket = static_cast<std::size_t>(begin / width);
        for (; bucket < buckets; ++bucket) {
          const double bucket_begin = static_cast<double>(bucket) * width;
          const double bucket_end = bucket_begin + width;
          const double overlap =
              std::min(clipped_end, bucket_end) - std::max(begin, bucket_begin);
          if (overlap <= 0.0) break;
          channel.occupancy_buckets[bucket] += overlap / width;
        }
      }
      for (double& fraction : channel.occupancy_buckets) {
        fraction = std::min(fraction, 1.0);
      }
    }
    report_.channels.push_back(std::move(channel));
  }

  // Occupancy: close each GPU's time-weighted integral at the makespan and
  // normalise to a mean occupancy fraction of the device warp budget.
  if (occ_armed_) {
    for (std::size_t gpu = 0; gpu < occ_.size(); ++gpu) {
      occ_accrue(occ_[gpu], makespan_us);
      report_.occupancy.per_gpu[gpu].mean_occupancy =
          makespan_us > 0.0 && report_.occupancy.total_warps > 0
              ? occ_[gpu].integral /
                    (makespan_us *
                     static_cast<double>(report_.occupancy.total_warps))
              : 0.0;
    }
  }

  // Cluster: fold per-GPU work into the owning node and total the network
  // channels (transfers/bytes are counted at kTransferStart, so they are
  // final by now).
  if (report_.cluster.enabled) {
    for (std::uint32_t gpu = 0; gpu < report_.per_gpu.size(); ++gpu) {
      const RunReport::Gpu& g = report_.per_gpu[gpu];
      RunReport::Cluster::Node& node =
          report_.cluster.per_node[platform_.node_of(gpu)];
      node.tasks_executed += g.tasks_executed;
      node.busy_us += g.busy_us;
      node.loads += g.loads;
      node.bytes_loaded += g.bytes_loaded;
    }
    for (std::size_t index = kChannelNetBase;
         index < channels_.size() &&
         index < kChannelNetBase + report_.cluster.num_nodes;
         ++index) {
      report_.cluster.network_transfers += channels_[index].transfers;
      report_.cluster.network_bytes += channels_[index].bytes;
    }
  }
}

}  // namespace mg::sim
