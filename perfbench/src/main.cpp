// perfbench — the repository's paper-scale benchmark program.
//
//   perfbench --workload fig08-dynamic --seed 1 --seconds 30 --trace 0
//             [--spans PATH]
//
// Repeats untraced passes of the workload (workloads.hpp) for --seconds
// seconds, cycling through eight instances drawn from --seed and timing a
// fixed reference computation between passes, then runs traced passes of
// the first instance (two with --trace 1, one otherwise, as a check). Every run is checked: no EngineError, every task executed
// exactly once (serving: every job completed or shed), the invariant
// checker clean wherever it rides, and every simulated outcome identical
// across passes and between the traced and untraced pass. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status 0 iff every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "decorators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
               message);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Peak resident set in MB (VmHWM).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The per-layer split of one traced pass, summed over its runs.
/// `untraced_ratio`: the median untraced pass of the same instance in
/// reference units; `reference_s`: the reference timed around this pass.
std::vector<Metric> layer_metrics(const PassResult& pass, bool serving,
                                  double untraced_ratio, double reference_s,
                                  double gen_s) {
  double run_s = 0, prepare_s = 0, pop_s = 0, notify_s = 0, choose_s = 0;
  double hook_s = 0, checker_s = 0, collector_s = 0, serialize_s = 0;
  double partition_s = 0, imbalance = 0;
  std::uint64_t pops = 0, hits = 0, notify_calls = 0, choices = 0;
  std::uint64_t candidates = 0, refusals = 0, events = 0, inspect_events = 0;
  std::uint64_t report_bytes = 0, loads = 0, evictions = 0, connectivity = 0;
  std::uint64_t net_transfers = 0, cache_evictions = 0, fused = 0, supers = 0;
  std::uint32_t peak_queue = 0;
  double net_mb = 0, reuse_mb = 0;
  std::vector<double> pop_us, floor_ratio, occupancy, hit_rate, stall, busy;
  for (const RunRecord& run : pass.runs) {
    const LayerRecord& l = run.layers;
    run_s += l.run_s;
    prepare_s += l.prepare_s;
    pop_s += l.pop_s;
    notify_s += l.sched.notify.seconds;
    notify_calls += l.sched.notify.calls;
    pops += l.sched.pops;
    hits += l.sched.pop_hits;
    pop_us.insert(pop_us.end(), l.pop_us.begin(), l.pop_us.end());
    choose_s += l.choose_s;
    choices += l.evict.choices;
    candidates += l.evict.candidates;
    refusals += l.evict.refusals;
    hook_s += l.evict.hooks.seconds;
    checker_s += l.checker.seconds;
    collector_s += l.collector.seconds;
    inspect_events += l.inspector_events;
    serialize_s += l.serialize_s;
    report_bytes += run.report_json.size();
    partition_s += l.partition_s;
    const SimRecord& sim = run.sim;
    connectivity += sim.connectivity;
    imbalance = std::max(imbalance, sim.imbalance);
    events += sim.events;
    loads += sim.loads;
    evictions += sim.evictions;
    floor_ratio.push_back(sim.host_mb / sim.floor_mb);
    stall.push_back(sim.stall_frac);
    occupancy.push_back(run.report.bus_occupancy);
    hit_rate.push_back(run.report.prefetch_hit_rate);
    busy.push_back(run.report.busy_imbalance);
    net_transfers += run.report.net_transfers;
    net_mb += run.report.net_mb;
    cache_evictions += run.report.host_cache_evictions;
    peak_queue = std::max(peak_queue, sim.peak_queue_depth);
    reuse_mb += sim.reuse_mb;
    fused += sim.jobs_fused;
    supers += sim.super_tasks;
  }
  const double self_s = run_s - (prepare_s + pop_s + notify_s + choose_s +
                                 hook_s + checker_s + collector_s +
                                 serialize_s);
  // Untraced batch passes carry no inspector and serialize nothing, so
  // their callback time is not tracing overhead; serving runs carry both in
  // either pass.
  const double added_s =
      serving ? 0.0 : checker_s + collector_s + serialize_s;
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  return {
      {"workloads.gen_s", gen_s, "s"},
      {"sched.prepare_s", prepare_s, "s"},
      {"sched.pop_s", pop_s, "s"},
      {"sched.pops", count(pops), "count"},
      {"sched.pop_hit_frac", pops > 0 ? count(hits) / count(pops) : 0.0,
       "fraction"},
      {"sched.pop_us_p50", quantile(pop_us, 0.50), "us"},
      {"sched.pop_us_p99", quantile(pop_us, 0.99), "us"},
      {"sched.notify_s", notify_s, "s"},
      {"sched.notify_calls", count(notify_calls), "count"},
      {"hypergraph.partition_s", partition_s, "s"},
      {"hypergraph.connectivity", count(connectivity), "bytes"},
      {"hypergraph.imbalance", imbalance, "ratio"},
      {"evict.choose_s", choose_s, "s"},
      {"evict.choices", count(choices), "count"},
      {"evict.candidates_mean",
       choices > 0 ? count(candidates) / count(choices) : 0.0, "count"},
      {"evict.refusals", count(refusals), "count"},
      {"evict.hook_s", hook_s, "s"},
      {"mem.loads", count(loads), "count"},
      {"mem.evictions", count(evictions), "count"},
      {"mem.load_floor_ratio", geomean(floor_ratio), "ratio"},
      {"bus.occupancy", mean(occupancy), "fraction"},
      {"prefetch.hit_rate", mean(hit_rate), "fraction"},
      {"gpu.stall_frac", mean(stall), "fraction"},
      {"load_balance.busy_imbalance", mean(busy), "ratio"},
      {"net.transfers", count(net_transfers), "count"},
      {"net.mb", net_mb, "MB"},
      {"host_cache.evictions", count(cache_evictions), "count"},
      {"engine.events", count(events), "count"},
      {"engine.events_per_s", self_s > 0.0 ? count(events) / self_s : 0.0,
       "1/s"},
      {"engine.self_s", self_s, "s"},
      {"inspect.checker_s", checker_s, "s"},
      {"inspect.collector_s", collector_s, "s"},
      {"inspect.events", count(inspect_events), "count"},
      {"report.serialize_s", serialize_s, "s"},
      {"report.bytes", count(report_bytes), "bytes"},
      {"serve.peak_queue_depth", static_cast<double>(peak_queue), "count"},
      {"serve.reuse_mb", reuse_mb, "MB"},
      {"slo.jobs_fused", count(fused), "count"},
      {"slo.super_tasks", count(supers), "count"},
      {"trace.wall_s", run_s, "s"},
      {"trace.overhead_frac",
       (run_s - added_s) / reference_s / untraced_ratio - 1.0, "fraction"},
  };
}

/// Element-wise median of several traced passes' layer metrics.
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& samples) {
  std::vector<Metric> out = samples.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& sample : samples) values.push_back(sample[i].value);
    out[i].value = median(values);
  }
  return out;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

volatile std::uint64_t reference_sink = 0;

/// Host seconds of a fixed reference computation: churn on a 4 096-entry
/// binary heap, the shape of a discrete-event queue. It depends on nothing
/// in the simulator, so it measures how fast the machine runs right now.
/// On a shared host that speed drifts by tens of percent from one minute to
/// the next, and the simulator's pass times drift with it; dividing by the
/// reference timed around each pass cancels most of that drift.
double reference_seconds() {
  const auto start = Clock::now();
  std::vector<std::uint64_t> heap;
  heap.reserve(4097);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 300000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.push_back(state >> 20);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  reference_sink = heap.front();  // keeps the loop from being optimized out
  return seconds;
}

/// Inputs of one run: --seed expands into kSubSeeds workload instances
/// (like a figure's repetitions), cycled through by the untraced passes, so
/// the reported figures average over instances instead of riding on one
/// partition or one arrival sequence.
constexpr std::uint32_t kSubSeeds = 8;

std::uint64_t sub_seed(std::uint64_t seed, std::uint32_t index) {
  return seed * kSubSeeds + index;
}

int run(const Args& args) {
  const bool serving = args.workload == "serve-cluster";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  // First outcome of every run of every sub-seed; later passes must match.
  std::vector<std::vector<SimRecord>> reference(kSubSeeds);
  std::vector<std::uint64_t> reference_pops;

  // Counts one pass's operations and checks its simulated outcomes against
  // the first pass of the same sub-seed.
  const auto account = [&](const PassResult& pass, std::uint32_t index,
                           bool traced) {
    std::vector<SimRecord>& expected = reference[index];
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      const RunRecord& run = pass.runs[i];
      const std::uint64_t operations = serving ? run.sim.jobs : 1;
      attempted += operations;
      if (run.failed) {
        failed += operations;
        std::fprintf(stderr, "perfbench: %s failed: %s\n", run.label.c_str(),
                     run.error.c_str());
      } else if (serving) {
        failed += run.sim.jobs_shed;
      }
      if (expected.size() <= i) {
        expected.push_back(run.sim);
      } else if (!(expected[i] == run.sim)) {
        deterministic = false;
        std::fprintf(stderr,
                     "perfbench: %s: simulated outcome differs between "
                     "passes (events %llu vs %llu)\n",
                     run.label.c_str(),
                     static_cast<unsigned long long>(expected[i].events),
                     static_cast<unsigned long long>(run.sim.events));
      }
      if (traced) {
        if (reference_pops.size() <= i) {
          reference_pops.push_back(run.layers.sched.pops);
        } else if (reference_pops[i] != run.layers.sched.pops) {
          deterministic = false;
          std::fprintf(stderr, "perfbench: %s: pop count differs between "
                               "traced passes\n",
                       run.label.c_str());
        }
      }
    }
  };

  // Untraced passes for --seconds, and at least once around the sub-seeds
  // plus one repeat.
  std::vector<double> walls;
  std::vector<std::size_t> instance0_passes;
  std::vector<double> refs = {reference_seconds()};
  std::vector<double> setups;
  std::vector<double> gen;
  PassResult first;
  const auto start = Clock::now();
  for (std::uint32_t count = 0;
       count <= kSubSeeds ||
       std::chrono::duration<double>(Clock::now() - start).count() <
           args.seconds;
       ++count) {
    const std::uint32_t index = count % kSubSeeds;
    PassResult pass = run_pass(args.workload, sub_seed(args.seed, index), {});
    refs.push_back(reference_seconds());
    account(pass, index, /*traced=*/false);
    walls.push_back(pass.wall_s);
    setups.push_back(pass.setup_s);
    gen.push_back(pass.gen_s);
    if (index == 0) instance0_passes.push_back(walls.size() - 1);
    if (count == 0) first = std::move(pass);
  }
  // Each pass in units of the reference timed just before and after it.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    ratios.push_back(walls[i] / (0.5 * (refs[i] + refs[i + 1])));
  }
  std::vector<double> instance0_ratios;
  for (std::size_t i : instance0_passes) instance0_ratios.push_back(ratios[i]);
  const double wall_s = median(walls);

  const double rss_mb = peak_rss_mb();  // before tracing adds its spans

  // Traced passes of sub-seed 0: the per-layer split, and a check of the
  // untraced ones.
  std::vector<std::vector<Metric>> layer_samples;
  const int traced_passes = args.trace ? 2 : 1;
  for (int i = 0; i < traced_passes; ++i) {
    Tracer tracer;
    const double ref_before = reference_seconds();
    const PassResult pass = run_pass(args.workload, sub_seed(args.seed, 0),
                                     {.tracer = &tracer});
    const double reference_s = 0.5 * (ref_before + reference_seconds());
    account(pass, 0, /*traced=*/true);
    layer_samples.push_back(layer_metrics(pass, serving,
                                          median(instance0_ratios),
                                          reference_s, median(gen)));
    if (i + 1 == traced_passes && !args.spans_path.empty() &&
        !tracer.write_chrome_trace(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
  }

  // Simulated end-to-end figures, over every sub-seed's first pass.
  double tasks = 0.0;
  std::vector<double> gflops, host_mb, job_p99, hi_p99;
  double jobs = 0.0;
  double misses = 0.0;
  for (const std::vector<SimRecord>& runs : reference) {
    for (const SimRecord& sim : runs) {
      tasks += static_cast<double>(sim.tasks_executed);
      gflops.push_back(sim.gflops);
      host_mb.push_back(sim.host_mb);
      // A batch run is one job, submitted at t=0 in the only tier: its
      // latency is the run's makespan.
      job_p99.push_back(serving ? sim.job_p99_ms : sim.makespan_ms);
      hi_p99.push_back(serving ? sim.hi_p99_ms : sim.makespan_ms);
      jobs += sim.jobs;
      misses += sim.deadline_misses;
    }
  }
  tasks /= kSubSeeds;

  std::printf("perfbench %s seed=%llu: %zu untraced passes over %u "
              "instances; wall_s median %.4f s (q1 %.4f, q3 %.4f); wall_ref "
              "median %.3f (q1 %.3f, q3 %.3f); reference %.5f s; setup_s "
              "%.4f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), walls.size(),
              kSubSeeds, wall_s, quantile(walls, 0.25), quantile(walls, 0.75),
              median(ratios), quantile(ratios, 0.25), quantile(ratios, 0.75),
              median(refs), median(setups));
  std::printf("  pass walls (s):");
  for (double wall : walls) std::printf(" %.4f", wall);
  std::printf("\n");
  for (const RunRecord& run : first.runs) {
    std::printf("  %-30s wall %.4f s  %llu events  %.1f GFlop/s  %.0f MB\n",
                run.label.c_str(), run.wall_s,
                static_cast<unsigned long long>(run.sim.events),
                run.sim.gflops, run.sim.host_mb);
  }

  const bool correct = failed == 0 && deterministic;
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = median_metrics(layer_samples);
    metrics.push_back({"wall_s", wall_s, "s"});
    metrics.push_back({"tasks_per_s", tasks / wall_s, "1/s"});
    metrics.push_back({"reference_s", median(refs), "s"});
    metrics.push_back({"failed_frac",
                       static_cast<double>(failed) /
                           static_cast<double>(attempted),
                       "fraction"});
    metrics.push_back({"sim_deadline_miss_frac",
                       jobs > 0.0 ? misses / jobs : 0.0, "fraction"});
  } else {
    metrics = {
        {"wall_ref", median(ratios), "ref"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_gflops", geomean(gflops), "GFlop/s"},
        {"sim_host_mb", geomean(host_mb), "MB"},
        {"sim_job_p99_ms", geomean(job_p99), "ms"},
        {"sim_hi_p99_ms", geomean(hi_p99), "ms"},
    };
  }
  print_json(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
