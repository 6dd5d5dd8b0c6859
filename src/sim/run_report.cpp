#include "sim/run_report.hpp"

#include <algorithm>
#include <cstdio>

namespace mg::sim {

namespace {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  out += buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

}  // namespace

std::string run_report_to_json(const RunReport& report) {
  std::string json = "{";
  json += "\"schema_version\":" + std::to_string(RunReport::kSchemaVersion);
  json += ",\"scheduler\":";
  append_json_string(json, report.scheduler);
  json += ",\"context\":";
  append_json_string(json, report.context);

  json += ",\"platform\":{\"num_gpus\":" + std::to_string(report.num_gpus);
  json += ",\"gpu_memory_bytes\":";
  append_u64(json, report.gpu_memory_bytes);
  json += ",\"bus_bandwidth_bytes_per_s\":";
  append_double(json, report.bus_bandwidth_bytes_per_s);
  json += ",\"nvlink\":";
  json += report.nvlink ? "true" : "false";
  json += "}";

  json += ",\"makespan_us\":";
  append_double(json, report.makespan_us);
  json += ",\"total_flops\":";
  append_double(json, report.total_flops);
  json += ",\"achieved_gflops\":";
  append_double(json, report.achieved_gflops);

  json += ",\"per_gpu\":[";
  for (std::size_t gpu = 0; gpu < report.per_gpu.size(); ++gpu) {
    const RunReport::Gpu& g = report.per_gpu[gpu];
    if (gpu > 0) json += ',';
    json += "{\"gpu\":" + std::to_string(gpu);
    json += ",\"tasks_executed\":";
    append_u64(json, g.tasks_executed);
    json += ",\"busy_us\":";
    append_double(json, g.busy_us);
    json += ",\"loads\":";
    append_u64(json, g.loads);
    json += ",\"peer_loads\":";
    append_u64(json, g.peer_loads);
    json += ",\"bytes_loaded\":";
    append_u64(json, g.bytes_loaded);
    json += ",\"evictions\":";
    append_u64(json, g.evictions);
    json += ",\"peak_committed_bytes\":";
    append_u64(json, g.peak_committed_bytes);
    json += ",\"eviction_policy\":";
    append_json_string(json, g.eviction_policy);
    json += "}";
  }
  json += "]";

  json += ",\"load_balance\":{\"max_tasks\":";
  append_u64(json, report.load_balance.max_tasks);
  json += ",\"min_tasks\":";
  append_u64(json, report.load_balance.min_tasks);
  json += ",\"mean_tasks\":";
  append_double(json, report.load_balance.mean_tasks);
  json += ",\"busy_imbalance\":";
  append_double(json, report.load_balance.busy_imbalance);
  json += "}";

  json += ",\"channels\":[";
  for (std::size_t i = 0; i < report.channels.size(); ++i) {
    const RunReport::Channel& channel = report.channels[i];
    if (i > 0) json += ',';
    json += "{\"name\":";
    append_json_string(json, channel.name);
    json += ",\"transfers\":";
    append_u64(json, channel.transfers);
    json += ",\"bytes\":";
    append_u64(json, channel.bytes);
    json += ",\"busy_us\":";
    append_double(json, channel.busy_us);
    json += ",\"occupancy\":";
    append_double(json, channel.occupancy);
    json += ",\"occupancy_buckets\":[";
    for (std::size_t b = 0; b < channel.occupancy_buckets.size(); ++b) {
      if (b > 0) json += ',';
      append_double(json, channel.occupancy_buckets[b]);
    }
    json += "]}";
  }
  json += "]";

  json += ",\"prefetch\":{\"demand_fetches\":";
  append_u64(json, report.prefetch.demand_fetches);
  json += ",\"prefetch_fetches\":";
  append_u64(json, report.prefetch.prefetch_fetches);
  json += ",\"hit_rate\":";
  append_double(json, report.prefetch.hit_rate);
  json += "}";

  json += ",\"evictions_by_policy\":{";
  bool first = true;
  for (const auto& [policy, count] : report.evictions_by_policy) {
    if (!first) json += ',';
    first = false;
    append_json_string(json, policy);
    json += ':';
    append_u64(json, count);
  }
  json += "}";

  json += ",\"faults\":{\"gpu_losses\":" +
          std::to_string(report.faults.gpu_losses);
  json += ",\"capacity_shocks\":" +
          std::to_string(report.faults.capacity_shocks);
  json += ",\"tasks_reclaimed\":";
  append_u64(json, report.faults.tasks_reclaimed);
  json += ",\"transfer_retries\":";
  append_u64(json, report.faults.transfer_retries);
  json += ",\"wasted_transfer_bytes\":";
  append_u64(json, report.faults.wasted_transfer_bytes);
  json += ",\"recovery_latency_us\":[";
  for (std::size_t i = 0; i < report.faults.recovery_latency_us.size(); ++i) {
    if (i > 0) json += ',';
    append_double(json, report.faults.recovery_latency_us[i]);
  }
  json += "],\"max_recovery_latency_us\":";
  append_double(json, report.faults.max_recovery_latency_us);
  json += ",\"adoptions\":[";
  for (std::size_t i = 0; i < report.faults.adoptions.size(); ++i) {
    const RunReport::Faults::Adoption& adoption = report.faults.adoptions[i];
    if (i > 0) json += ',';
    json += "{\"task\":" + std::to_string(adoption.task);
    json += ",\"from_gpu\":" + std::to_string(adoption.from_gpu);
    json += ",\"to_gpu\":" + std::to_string(adoption.to_gpu);
    json += "}";
  }
  json += "]";

  const RunReport::Faults::Checkpoints& checkpoints = report.faults.checkpoints;
  json += ",\"checkpoints\":{\"taken\":";
  append_u64(json, checkpoints.taken);
  json += ",\"payload_bytes\":";
  append_u64(json, checkpoints.payload_bytes);
  json += ",\"overhead_us\":";
  append_double(json, checkpoints.overhead_us);
  json += ",\"tasks_restored\":";
  append_u64(json, checkpoints.tasks_restored);
  json += ",\"compute_saved_us\":";
  append_double(json, checkpoints.compute_saved_us);
  json += "}";

  const RunReport::Faults::Replicas& replicas = report.faults.replicas;
  json += ",\"replicas\":{\"created\":";
  append_u64(json, replicas.created);
  json += ",\"bytes\":";
  append_u64(json, replicas.bytes);
  json += ",\"shed\":";
  append_u64(json, replicas.shed);
  json += ",\"protected_sole_survivor\":";
  append_u64(json, replicas.protected_sole_survivor);
  json += ",\"released\":";
  append_u64(json, replicas.released);
  json += ",\"post_loss_host_loads\":";
  append_u64(json, replicas.post_loss_host_loads);
  json += "}";

  json += ",\"replay_divergence\":[";
  for (std::size_t i = 0; i < report.faults.replay_divergence.size(); ++i) {
    const RunReport::Faults::ReplayDivergenceEntry& entry =
        report.faults.replay_divergence[i];
    if (i > 0) json += ',';
    json += "{\"gpu\":" + std::to_string(entry.gpu);
    json += ",\"divergence_index\":" + std::to_string(entry.divergence_index);
    json += ",\"reassigned_tasks\":" + std::to_string(entry.reassigned_tasks);
    json += "}";
  }
  json += "]}";

  const RunReport::Serving& serving = report.serving;
  json += ",\"serving\":{\"enabled\":";
  json += serving.enabled ? "true" : "false";
  json += ",\"arrival\":";
  append_json_string(json, serving.arrival);
  json += ",\"jobs_submitted\":" + std::to_string(serving.jobs_submitted);
  json += ",\"jobs_completed\":" + std::to_string(serving.jobs_completed);
  json += ",\"jobs_shed\":" + std::to_string(serving.jobs_shed);
  json += ",\"throughput_jobs_per_s\":";
  append_double(json, serving.throughput_jobs_per_s);
  json += ",\"latency_p50_us\":";
  append_double(json, serving.latency_p50_us);
  json += ",\"latency_p95_us\":";
  append_double(json, serving.latency_p95_us);
  json += ",\"latency_p99_us\":";
  append_double(json, serving.latency_p99_us);
  json += ",\"latency_mean_us\":";
  append_double(json, serving.latency_mean_us);
  json += ",\"latency_max_us\":";
  append_double(json, serving.latency_max_us);
  json += ",\"deadline_hits\":" + std::to_string(serving.deadline_hits);
  json += ",\"deadline_misses\":" + std::to_string(serving.deadline_misses);
  json += ",\"deadline_miss_rate\":";
  append_double(json, serving.deadline_miss_rate);
  json += ",\"cross_job_reuse_bytes\":";
  append_u64(json, serving.cross_job_reuse_bytes);
  json += ",\"cross_job_reuse_hits\":";
  append_u64(json, serving.cross_job_reuse_hits);
  json += ",\"peak_jobs_in_flight\":" +
          std::to_string(serving.peak_jobs_in_flight);
  json += ",\"peak_queue_depth\":" + std::to_string(serving.peak_queue_depth);
  json += ",\"queue_depth_timeline\":[";
  for (std::size_t i = 0; i < serving.queue_depth_timeline.size(); ++i) {
    if (i > 0) json += ',';
    json += '[';
    append_double(json, serving.queue_depth_timeline[i].first);
    json += ',' + std::to_string(serving.queue_depth_timeline[i].second);
    json += ']';
  }
  json += "]}";

  const RunReport::Cluster& cluster = report.cluster;
  json += ",\"cluster\":{\"enabled\":";
  json += cluster.enabled ? "true" : "false";
  json += ",\"num_nodes\":" + std::to_string(cluster.num_nodes);
  json += ",\"per_node\":[";
  for (std::size_t node = 0; node < cluster.per_node.size(); ++node) {
    const RunReport::Cluster::Node& n = cluster.per_node[node];
    if (node > 0) json += ',';
    json += "{\"node\":" + std::to_string(node);
    json += ",\"gpu_begin\":" + std::to_string(n.gpu_begin);
    json += ",\"gpu_end\":" + std::to_string(n.gpu_end);
    json += ",\"tasks_executed\":";
    append_u64(json, n.tasks_executed);
    json += ",\"busy_us\":";
    append_double(json, n.busy_us);
    json += ",\"loads\":";
    append_u64(json, n.loads);
    json += ",\"bytes_loaded\":";
    append_u64(json, n.bytes_loaded);
    json += ",\"remote_fetches\":";
    append_u64(json, n.remote_fetches);
    json += ",\"host_cache_fills\":";
    append_u64(json, n.host_cache_fills);
    json += ",\"host_cache_evictions\":";
    append_u64(json, n.host_cache_evictions);
    json += "}";
  }
  json += "],\"network_transfers\":";
  append_u64(json, cluster.network_transfers);
  json += ",\"network_bytes\":";
  append_u64(json, cluster.network_bytes);
  json += ",\"host_cache_fills\":";
  append_u64(json, cluster.host_cache_fills);
  json += ",\"host_cache_evictions\":";
  append_u64(json, cluster.host_cache_evictions);
  json += ",\"steals\":";
  append_u64(json, cluster.steals);
  json += "}";

  const RunReport::Dependencies& deps = report.dependencies;
  json += ",\"dependencies\":{\"enabled\":";
  json += deps.enabled ? "true" : "false";
  json += ",\"explicit_edges\":";
  append_u64(json, deps.explicit_edges);
  json += ",\"raw_edges\":";
  append_u64(json, deps.raw_edges);
  json += ",\"war_edges\":";
  append_u64(json, deps.war_edges);
  json += ",\"waw_edges\":";
  append_u64(json, deps.waw_edges);
  json += ",\"total_edges\":";
  append_u64(json, deps.total_edges);
  json += ",\"critical_path_length\":" +
          std::to_string(deps.critical_path_length);
  json += ",\"max_ready_width\":" + std::to_string(deps.max_ready_width);
  json += ",\"tasks_enabled\":";
  append_u64(json, deps.tasks_enabled);
  json += ",\"edges_released\":";
  append_u64(json, deps.edges_released);
  json += ",\"tasks_unretired\":";
  append_u64(json, deps.tasks_unretired);
  json += "}";

  const RunReport::Autoscaling& scaling = report.autoscaling;
  json += ",\"autoscaling\":{\"enabled\":";
  json += scaling.enabled ? "true" : "false";
  json += ",\"scale_out_events\":" + std::to_string(scaling.scale_out_events);
  json += ",\"scale_in_events\":" + std::to_string(scaling.scale_in_events);
  json += ",\"nodes_drained\":" + std::to_string(scaling.nodes_drained);
  json += ",\"nodes_joined\":" + std::to_string(scaling.nodes_joined);
  json += ",\"node_losses\":" + std::to_string(scaling.node_losses);
  json += ",\"tasks_drained\":";
  append_u64(json, scaling.tasks_drained);
  json += ",\"migrations\":";
  append_u64(json, scaling.migrations);
  json += ",\"migrated_bytes\":";
  append_u64(json, scaling.migrated_bytes);
  json += ",\"warm_fills\":";
  append_u64(json, scaling.warm_fills);
  json += ",\"warm_fill_bytes\":";
  append_u64(json, scaling.warm_fill_bytes);
  json += ",\"drain_latency_total_us\":";
  append_double(json, scaling.drain_latency_total_us);
  json += ",\"drain_latency_max_us\":";
  append_double(json, scaling.drain_latency_max_us);
  json += "}";

  const RunReport::Occupancy& occupancy = report.occupancy;
  json += ",\"occupancy\":{\"enabled\":";
  json += occupancy.enabled ? "true" : "false";
  json += ",\"threshold\":";
  append_double(json, occupancy.threshold);
  json += ",\"total_warps\":" + std::to_string(occupancy.total_warps);
  json += ",\"budget_warps\":" + std::to_string(occupancy.budget_warps);
  json += ",\"per_gpu\":[";
  for (std::size_t gpu = 0; gpu < occupancy.per_gpu.size(); ++gpu) {
    const RunReport::Occupancy::Gpu& g = occupancy.per_gpu[gpu];
    if (gpu > 0) json += ',';
    json += "{\"gpu\":" + std::to_string(gpu);
    json += ",\"peak_warps\":" + std::to_string(g.peak_warps);
    json += ",\"mean_occupancy\":";
    append_double(json, g.mean_occupancy);
    json += "}";
  }
  json += "],\"admissions\":";
  append_u64(json, occupancy.admissions);
  json += ",\"rejections\":";
  append_u64(json, occupancy.rejections);
  json += ",\"co_run_pairs\":";
  append_u64(json, occupancy.co_run_pairs);
  json += "}";

  const RunReport::NetworkFaults& net = report.network_faults;
  json += ",\"network_faults\":{\"enabled\":";
  json += net.enabled ? "true" : "false";
  json += ",\"link_degradations\":" + std::to_string(net.link_degradations);
  json += ",\"link_partitions\":" + std::to_string(net.link_partitions);
  json += ",\"link_heals\":" + std::to_string(net.link_heals);
  json += ",\"fetch_timeouts\":";
  append_u64(json, net.fetch_timeouts);
  json += ",\"hedged_fetches\":";
  append_u64(json, net.hedged_fetches);
  json += ",\"hedges_wasted\":";
  append_u64(json, net.hedges_wasted);
  json += ",\"hedge_wasted_bytes\":";
  append_u64(json, net.hedge_wasted_bytes);
  json += ",\"nodes_suspected\":" + std::to_string(net.nodes_suspected);
  json += ",\"suspicions_cleared\":" + std::to_string(net.suspicions_cleared);
  json += ",\"suspicions_escalated\":" +
          std::to_string(net.suspicions_escalated);
  json += "}";

  const RunReport::Slo& slo = report.slo;
  json += ",\"slo\":{\"enabled\":";
  json += slo.enabled ? "true" : "false";
  json += ",\"tiers\":" + std::to_string(slo.tiers);
  json += ",\"jobs_fused\":";
  append_u64(json, slo.jobs_fused);
  json += ",\"super_tasks\":";
  append_u64(json, slo.super_tasks);
  json += ",\"batches_unfused\":";
  append_u64(json, slo.batches_unfused);
  json += ",\"evictions_vetoed\":";
  append_u64(json, slo.evictions_vetoed);
  json += ",\"protections\":";
  append_u64(json, slo.protections);
  json += ",\"per_tier\":[";
  for (std::size_t i = 0; i < slo.per_tier.size(); ++i) {
    const RunReport::Slo::Tier& tier = slo.per_tier[i];
    if (i > 0) json += ',';
    json += "{\"tier\":" + std::to_string(tier.tier);
    json += ",\"jobs\":" + std::to_string(tier.jobs);
    json += ",\"p50_us\":";
    append_double(json, tier.p50_us);
    json += ",\"p95_us\":";
    append_double(json, tier.p95_us);
    json += ",\"p99_us\":";
    append_double(json, tier.p99_us);
    json += ",\"deadline_misses\":" + std::to_string(tier.deadline_misses);
    json += "}";
  }
  json += "]}}";
  return json;
}

bool write_run_reports(const std::vector<RunReport>& reports,
                       const std::string& context, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string json = "{\"schema_version\":";
  json += std::to_string(RunReport::kSchemaVersion);
  json += ",\"context\":";
  append_json_string(json, context);
  json += ",\"runs\":[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) json += ",\n";
    json += run_report_to_json(reports[i]);
  }
  json += "\n]}\n";
  const bool ok = std::fputs(json.c_str(), file) >= 0 && std::fflush(file) == 0;
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
