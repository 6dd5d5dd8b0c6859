#include "workloads.hpp"

#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/darts.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partitioner.hpp"
#include "hypergraph/quality.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hmetis_r.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/errors.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace perfbench {
namespace {

using mg::core::Platform;
using mg::core::Scheduler;
using mg::core::TaskGraph;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A scheduler under test, plus the concrete hMETIS+R handle when it is
/// one (its partition is checked against a direct partitioner call).
struct SchedulerUnderTest {
  std::unique_ptr<Scheduler> scheduler;
  mg::sched::HmetisScheduler* hmetis = nullptr;
};

SchedulerUnderTest make_scheduler(std::string_view name) {
  SchedulerUnderTest out;
  if (name == "EAGER") {
    out.scheduler = std::make_unique<mg::sched::EagerScheduler>();
  } else if (name == "DMDAR") {
    out.scheduler = std::make_unique<mg::sched::DmdaScheduler>();
  } else if (name == "DARTS+LUF") {
    out.scheduler =
        std::make_unique<mg::core::DartsScheduler>(mg::core::DartsOptions{
            .use_luf = true});
  } else if (name == "DARTS+LUF-3inputs") {
    out.scheduler =
        std::make_unique<mg::core::DartsScheduler>(mg::core::DartsOptions{
            .use_luf = true, .three_inputs = true});
  } else if (name == "hMETIS+R") {
    auto hmetis = std::make_unique<mg::sched::HmetisScheduler>();
    out.hmetis = hmetis.get();
    out.scheduler = std::move(hmetis);
  } else {
    throw std::invalid_argument("unknown scheduler " + std::string(name));
  }
  return out;
}

/// Per-run observability: the checker and collector, wrapped when traced.
struct Observers {
  mg::sim::InvariantChecker checker{{.fail_fast = false}};
  mg::sim::RunReportCollector collector{
      {.context = "perfbench", .collect_trace = false}};
  std::optional<TracedInspector> traced_checker;
  std::optional<TracedInspector> traced_collector;
  bool checking = false;
  bool collecting = false;

  template <typename Engine>
  void attach(Engine& engine, bool check, bool collect, bool traced) {
    checking = check;
    collecting = collect;
    if (check) {
      if (traced) {
        engine.add_inspector(&traced_checker.emplace(checker));
      } else {
        engine.add_inspector(&checker);
      }
    }
    if (collect) {
      if (traced) {
        engine.add_inspector(&traced_collector.emplace(collector));
      } else {
        engine.add_inspector(&collector);
      }
    }
  }
};

void fill_report_record(const mg::sim::RunReport& report, RunRecord& record) {
  ReportRecord& out = record.report;
  double occupancy = 0.0;
  std::uint32_t buses = 0;
  for (const auto& channel : report.channels) {
    if (channel.name == "host-bus" ||
        (channel.name.size() > 4 &&
         channel.name.compare(channel.name.size() - 4, 4, "-pci") == 0)) {
      occupancy += channel.occupancy;
      ++buses;
    }
  }
  out.bus_occupancy = buses > 0 ? occupancy / buses : 0.0;
  out.prefetch_hit_rate = report.prefetch.hit_rate;
  out.busy_imbalance = report.load_balance.busy_imbalance;
  out.net_transfers = report.cluster.network_transfers;
  out.net_mb = static_cast<double>(report.cluster.network_bytes) / 1e6;
  out.host_cache_evictions = report.cluster.host_cache_evictions;
}

void fill_metrics(const mg::core::RunMetrics& metrics, std::uint64_t events,
                  RunRecord& record) {
  SimRecord& sim = record.sim;
  sim.events = events;
  for (const auto& gpu : metrics.per_gpu) {
    sim.tasks_executed += gpu.tasks_executed;
  }
  sim.loads = metrics.total_loads();
  sim.evictions = metrics.total_evictions();
  sim.host_mb = metrics.transfers_mb();
  sim.gflops = metrics.achieved_gflops();
  sim.makespan_ms = metrics.makespan_us / 1e3;
  double stall_us = 0.0;
  for (const auto& gpu : metrics.per_gpu) stall_us += gpu.stall_time_us;
  const double capacity_us =
      static_cast<double>(metrics.per_gpu.size()) * metrics.makespan_us;
  sim.stall_frac = capacity_us > 0.0 ? stall_us / capacity_us : 0.0;
}

/// Fills the layer split of a traced run from its spans and decorators.
void fill_layers(const Tracer& tracer, std::size_t first_span,
                 const TracedScheduler& traced, const Observers& observers,
                 LayerRecord& layers) {
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.name == kSpanRun) {
      layers.run_s += span.seconds();
    } else if (span.name == kSpanPrepare) {
      layers.prepare_s += span.seconds();
    } else if (span.name == kSpanPop) {
      layers.pop_s += span.seconds();
      layers.pop_us.push_back(span.seconds() * 1e6);
    } else if (span.name == kSpanChooseVictim) {
      layers.choose_s += span.seconds();
    } else if (span.name == kSpanSerialize) {
      layers.serialize_s += span.seconds();
    }
  }
  layers.sched = traced.stats();
  layers.evict = traced.eviction_stats();
  if (observers.traced_checker.has_value()) {
    layers.checker = observers.traced_checker->tally();
    layers.inspector_events = observers.traced_checker->events();
  }
  if (observers.traced_collector.has_value()) {
    layers.collector = observers.traced_collector->tally();
  }
}

std::string serialize_report(const mg::sim::RunReport& report,
                             Tracer* tracer) {
  if (tracer == nullptr) return mg::sim::run_report_to_json(report);
  const ScopedSpan span(*tracer, kSpanSerialize);
  return mg::sim::run_report_to_json(report);
}

/// Quality of the partition hMETIS+R used (deterministic; untimed).
void record_partition_quality(const TaskGraph& graph, const Platform& platform,
                              const mg::sched::HmetisScheduler& hmetis,
                              RunRecord& record) {
  const auto quality = mg::hyper::evaluate_partition(
      mg::hyper::hypergraph_from_task_graph(graph), hmetis.parts(),
      platform.num_gpus);
  record.sim.connectivity = quality.connectivity_minus_1;
  record.sim.imbalance = quality.imbalance;
}

/// Timed direct call to the partitioner with the configuration hMETIS+R
/// uses (K = GPUs, the run's seed); it must reproduce the scheduler's parts.
void partition_directly(const TaskGraph& graph, const Platform& platform,
                        std::uint64_t seed,
                        const mg::sched::HmetisScheduler& hmetis,
                        Tracer& tracer, RunRecord& record) {
  mg::hyper::PartitionerConfig config;
  config.num_parts = platform.num_gpus;
  config.seed = seed;
  const std::int32_t span = tracer.open(kSpanPartition);
  const std::vector<std::uint32_t> parts = mg::hyper::partition_hypergraph(
      mg::hyper::hypergraph_from_task_graph(graph), config);
  tracer.close(span);
  record.layers.partition_s =
      tracer.spans()[static_cast<std::size_t>(span)].seconds();
  if (parts != hmetis.parts()) {
    record.failed = true;
    record.error = "direct partitioner call disagrees with hMETIS+R's parts";
  }
}

/// End-of-run checks every workload applies.
void check_run(const Observers& observers, RunRecord& record) {
  if (record.failed) return;
  if (record.sim.tasks_executed != record.sim.tasks_expected) {
    record.failed = true;
    record.error = "executed " + std::to_string(record.sim.tasks_executed) +
                   " tasks, expected " +
                   std::to_string(record.sim.tasks_expected);
  } else if (observers.checking && !observers.checker.ok()) {
    record.failed = true;
    record.error = "invariant violated: " + observers.checker.report().error;
  }
}

// ---- Batch workloads ---------------------------------------------------------

struct BatchRun {
  std::size_t graph;      ///< index into the pass's graphs
  const char* scheduler;  ///< make_scheduler name
};

struct BatchWorkload {
  std::function<std::vector<std::pair<std::string, TaskGraph>>()> make_graphs;
  std::vector<BatchRun> runs;
};

BatchWorkload batch_workload(std::string_view name) {
  if (name == "fig08-dynamic") {
    return {[] {
              std::vector<std::pair<std::string, TaskGraph>> graphs;
              graphs.emplace_back("matmul2d/142",
                                  mg::work::make_matmul_2d({.n = 142}));
              return graphs;
            },
            {{0, "EAGER"}, {0, "DMDAR"}, {0, "DARTS+LUF"}}};
  }
  return {[] {
            std::vector<std::pair<std::string, TaskGraph>> graphs;
            graphs.emplace_back("cholesky/28",
                                mg::work::make_cholesky_tasks({.n = 28}));
            graphs.emplace_back("matmul2d/64",
                                mg::work::make_matmul_2d({.n = 64}));
            return graphs;
          },
          {{0, "hMETIS+R"}, {0, "DARTS+LUF-3inputs"}, {1, "hMETIS+R"}}};
}

PassResult run_batch_pass(std::string_view name, std::uint64_t seed,
                          const PassOptions& options) {
  const BatchWorkload workload = batch_workload(name);
  PassResult pass;
  const auto gen_start = Clock::now();
  const auto graphs = workload.make_graphs();
  pass.gen_s = seconds_since(gen_start);
  pass.setup_s = pass.gen_s;

  const Platform platform = mg::core::make_v100_platform(4, 500 * mg::core::kMB);
  Tracer* tracer = options.tracer;
  const bool traced = tracer != nullptr;
  for (const BatchRun& run : workload.runs) {
    const TaskGraph& graph = graphs[run.graph].second;
    RunRecord record;
    record.label = std::string(run.scheduler) + "@" + graphs[run.graph].first;
    record.sim.tasks_expected = graph.num_tasks();
    record.sim.floor_mb = static_cast<double>(graph.working_set_bytes()) / 1e6;

    const auto setup_start = Clock::now();
    SchedulerUnderTest under_test = make_scheduler(run.scheduler);
    std::optional<TracedScheduler> wrapped;
    Scheduler& scheduler =
        traced ? wrapped.emplace(*under_test.scheduler, *tracer)
               : *under_test.scheduler;
    mg::sim::EngineConfig config;
    config.seed = seed;
    config.account_scheduler_cost = false;
    mg::sim::RuntimeEngine engine(graph, platform, scheduler, config);
    Observers observers;
    observers.attach(engine, /*check=*/traced,
                     /*collect=*/traced || options.collect_reports, traced);
    record.setup_s = seconds_since(setup_start);

    const std::size_t first_span = traced ? tracer->spans().size() : 0;
    const auto run_start = Clock::now();
    try {
      const std::optional<ScopedSpan> span =
          traced ? std::make_optional<ScopedSpan>(*tracer, kSpanRun)
                 : std::nullopt;
      const mg::core::RunMetrics metrics = engine.run();
      record.wall_s = seconds_since(run_start);
      fill_metrics(metrics, engine.event_queue().events_processed(), record);
      if (observers.collecting) {
        record.report_json =
            serialize_report(observers.collector.report(), tracer);
      }
    } catch (const mg::sim::EngineError& error) {
      record.wall_s = seconds_since(run_start);
      record.failed = true;
      record.error = error.what();
    }
    if (observers.collecting && !record.failed) {
      fill_report_record(observers.collector.report(), record);
    }
    if (under_test.hmetis != nullptr && !record.failed) {
      record_partition_quality(graph, platform, *under_test.hmetis, record);
    }
    check_run(observers, record);
    if (traced) {
      fill_layers(*tracer, first_span, *wrapped, observers, record.layers);
      if (under_test.hmetis != nullptr && !record.failed) {
        partition_directly(graph, platform, seed, *under_test.hmetis, *tracer,
                           record);
      }
    }
    pass.setup_s += record.setup_s;
    pass.wall_s += record.wall_s;
    pass.runs.push_back(std::move(record));
  }
  return pass;
}

// ---- Streamed serving ------------------------------------------------------

constexpr std::uint32_t kServeJobs = 2000;
constexpr double kServeRate = 150.0;  ///< Poisson arrivals, jobs/s

PassResult run_serve_pass(std::uint64_t seed, const PassOptions& options) {
  PassResult pass;
  const auto gen_start = Clock::now();
  std::vector<TaskGraph> templates;
  templates.push_back(mg::work::make_matmul_2d({.n = 8}));
  // Half the jobs are high tier, which half drawn from the seed.
  std::vector<std::uint32_t> order(kServeJobs);
  std::iota(order.begin(), order.end(), 0u);
  mg::util::Rng rng(seed);
  for (std::uint32_t i = kServeJobs - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  std::vector<mg::serve::JobSpec> jobs(kServeJobs);
  for (std::uint32_t i = 0; i < kServeJobs / 2; ++i) {
    jobs[order[i]].priority = 1;
  }
  pass.gen_s = seconds_since(gen_start);
  pass.setup_s = pass.gen_s;

  Platform platform = mg::core::make_v100_platform(4, 150 * mg::core::kMB);
  platform.num_nodes = 2;
  platform.host_memory_bytes = 60 * mg::core::kMB;

  mg::serve::ServeConfig config;
  config.arrival.mode = mg::serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = kServeRate;
  config.arrival.seed = seed;
  config.admission.max_jobs_in_flight = 8;
  config.engine.seed = seed;
  config.slo.enabled = true;
  config.slo.tiers = mg::slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1, .deadline_us = 80e3, .admission_weight = 4}}};
  // Eviction protection (slo.protect_min_priority) stays off: with it on,
  // the protected inputs of in-flight high-tier jobs can fill every GPU and
  // the run deadlocks (see README.md).
  config.slo.batching = true;
  config.slo.max_batch = 4;
  config.slo.marginal_compute = 0.4;

  Tracer* tracer = options.tracer;
  const bool traced = tracer != nullptr;
  for (const char* name : {"DMDAR", "DARTS+LUF"}) {
    RunRecord record;
    record.label = std::string(name) + "@serve";
    const auto setup_start = Clock::now();
    SchedulerUnderTest under_test = make_scheduler(name);
    std::optional<TracedScheduler> wrapped;
    Scheduler& scheduler =
        traced ? wrapped.emplace(*under_test.scheduler, *tracer)
               : *under_test.scheduler;
    mg::serve::ServeEngine engine(templates, jobs, platform, scheduler,
                                  config);
    Observers observers;
    observers.attach(engine, /*check=*/true, /*collect=*/true, traced);
    record.setup_s = seconds_since(setup_start);
    record.sim.jobs = kServeJobs;
    record.sim.floor_mb =
        static_cast<double>(engine.union_graph().graph.working_set_bytes()) /
        1e6;

    const std::size_t first_span = traced ? tracer->spans().size() : 0;
    const auto run_start = Clock::now();
    try {
      const std::optional<ScopedSpan> span =
          traced ? std::make_optional<ScopedSpan>(*tracer, kSpanRun)
                 : std::nullopt;
      const mg::serve::ServeResult result = engine.run();
      // The report as `memsched_serve --check --run-report` writes it.
      mg::sim::RunReport report = observers.collector.report();
      report.serving = result.serving;
      report.slo.enabled = result.slo.enabled;
      report.slo.tiers = result.slo.tiers;
      report.slo.per_tier = result.slo.per_tier;
      record.report_json = serialize_report(report, tracer);
      record.wall_s = seconds_since(run_start);

      fill_metrics(result.metrics,
                   engine.engine().event_queue().events_processed(), record);
      fill_report_record(report, record);
      SimRecord& sim = record.sim;
      const mg::sim::RunReport::Serving& serving = result.serving;
      sim.jobs_completed = serving.jobs_completed;
      sim.jobs_shed = serving.jobs_shed;
      sim.tasks_expected = static_cast<std::uint64_t>(serving.jobs_completed) *
                           templates[0].num_tasks();
      sim.deadline_misses = serving.deadline_misses;
      sim.job_p99_ms = serving.latency_p99_us / 1e3;
      sim.hi_p99_ms = result.slo.per_tier.back().p99_us / 1e3;
      sim.peak_queue_depth = serving.peak_queue_depth;
      sim.reuse_mb = static_cast<double>(serving.cross_job_reuse_bytes) / 1e6;
      sim.jobs_fused = report.slo.jobs_fused;
      sim.super_tasks = report.slo.super_tasks;
      if (sim.jobs_completed + sim.jobs_shed != kServeJobs) {
        record.failed = true;
        record.error = "jobs neither completed nor shed";
      }
    } catch (const mg::sim::EngineError& error) {
      record.wall_s = seconds_since(run_start);
      record.failed = true;
      record.error = error.what();
    }
    check_run(observers, record);
    if (traced) {
      fill_layers(*tracer, first_span, *wrapped, observers, record.layers);
    }
    pass.setup_s += record.setup_s;
    pass.wall_s += record.wall_s;
    pass.runs.push_back(std::move(record));
  }
  return pass;
}

}  // namespace

PassResult run_pass(std::string_view name, std::uint64_t seed,
                    const PassOptions& options) {
  if (name == "serve-cluster") return run_serve_pass(seed, options);
  return run_batch_pass(name, seed, options);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig08-dynamic", "fig11-partition", "serve-cluster"};
  return names;
}

}  // namespace perfbench
