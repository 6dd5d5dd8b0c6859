#include "analysis/trace_export.hpp"

#include <cstdio>
#include <map>

#include "util/json.hpp"

namespace mg::analysis {

bool export_chrome_trace(const core::TaskGraph& graph,
                         const core::Platform& platform,
                         const sim::Trace& trace, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;

  // The document streams through `out`, flushed to the file in chunks so a
  // long trace never sits in memory whole.
  std::string out;
  bool ok = true;
  auto flush = [&] {
    ok = ok && std::fwrite(out.data(), 1, out.size(), file) == out.size();
    out.clear();
  };
  util::json::Writer json(out, util::json::Doubles::kFixed3);
  json.begin_object()
      .field("displayTimeUnit", "ms")
      .key("traceEvents")
      .begin_array(util::json::Writer::kLines);

  // Row names.
  for (core::GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
    json.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 0)
        .field("tid", gpu)
        .key("args")
        .begin_object()
        .field("name", "GPU " + std::to_string(gpu))
        .end_object()
        .end_object();
  }

  // Task slices need start+end pairing; track the open start per GPU.
  // Loads, peer copies, evictions and write-backs are instant events.
  std::vector<double> open_start(platform.num_gpus, 0.0);
  std::string name;
  for (const sim::InspectorEvent& event : trace.events) {
    using Kind = sim::InspectorEventKind;
    if (event.kind == Kind::kTaskStart) {
      open_start[event.gpu] = event.time_us;
      continue;
    }
    const std::string id = std::to_string(event.id);
    switch (event.kind) {
      case Kind::kTaskEnd: {
        const std::string& label = graph.task_label(event.id);
        name = label.empty() ? "task " + id : label;
        break;
      }
      case Kind::kLoadComplete:
        name = (event.aux != 0 ? "peer-load d" : "load d") + id;
        break;
      case Kind::kEvict: name = "evict d" + id; break;
      case Kind::kWriteBackEnd: name = "writeback t" + id; break;
      default: continue;
    }
    const bool slice = event.kind == Kind::kTaskEnd;
    json.begin_object()
        .field("name", name)
        .field("ph", slice ? "X" : "i")
        .field("pid", 0)
        .field("tid", event.gpu)
        .field("ts", slice ? open_start[event.gpu] : event.time_us);
    if (slice) {
      json.field("dur", event.time_us - open_start[event.gpu])
          .key("args")
          .begin_object()
          .field("task", event.id)
          .end_object();
    } else {
      json.field("s", "t");
    }
    json.end_object();
    if (out.size() >= 1 << 16) flush();
  }
  json.end_array().end_object();
  out += '\n';
  flush();
  ok = ok && std::fflush(file) == 0;
  std::fclose(file);
  return ok;
}

ReuseStats compute_reuse_stats(const core::TaskGraph& graph,
                               const sim::Trace& trace) {
  ReuseStats stats;
  // loads per (gpu, data); also per data across gpus for most_reloaded.
  std::map<std::pair<core::GpuId, core::DataId>, std::uint64_t> per_pair;
  std::vector<std::uint64_t> per_data(graph.num_data(), 0);

  for (const sim::InspectorEvent& event : trace.events) {
    if (event.kind != sim::InspectorEventKind::kLoadComplete) continue;
    ++stats.total_loads;
    ++per_pair[{event.gpu, event.id}];
    ++per_data[event.id];
  }

  for (const auto& [key, count] : per_pair) {
    (void)key;
    if (count > stats.histogram.size()) stats.histogram.resize(count, 0);
    ++stats.histogram[count - 1];
    stats.reloads += count - 1;
  }
  for (core::DataId data = 0; data < graph.num_data(); ++data) {
    if (per_data[data] == 0) continue;
    ++stats.distinct_data;
    if (per_data[data] > stats.max_loads_one_data) {
      stats.max_loads_one_data = per_data[data];
      stats.most_reloaded = data;
    }
  }
  stats.mean_loads_per_used_data =
      stats.distinct_data > 0
          ? static_cast<double>(stats.total_loads) /
                static_cast<double>(stats.distinct_data)
          : 0.0;
  return stats;
}

}  // namespace mg::analysis
