#include "analysis/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "slo/tier_policy.hpp"
#include "util/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace mg::analysis {
namespace {

struct RunResult {
  core::TaskGraph graph;
  core::Platform platform;
  sim::Trace trace;
};

RunResult run_small() {
  RunResult result{work::make_matmul_2d({.n = 4, .data_bytes = 10}),
                   core::Platform{}, {}};
  result.platform.num_gpus = 2;
  result.platform.gpu_memory_bytes = 100;
  result.platform.gpu_gflops = 1e-3;
  result.platform.bus_bandwidth_bytes_per_s = 1e6;
  result.platform.bus_latency_us = 0.0;
  core::DartsScheduler darts;
  sim::RuntimeEngine engine(result.graph, result.platform, darts);
  engine.add_inspector(&result.trace);
  (void)engine.run();
  return result;
}

TEST(ChromeTraceExport, ProducesParseableishJson) {
  const RunResult result = run_small();
  const std::string path = testing::TempDir() + "/trace.json";
  ASSERT_TRUE(export_chrome_trace(result.graph, result.platform, result.trace,
                                  path));

  std::ifstream input(path);
  ASSERT_TRUE(input.good());
  std::stringstream buffer;
  buffer << input.rdbuf();
  const std::string json = buffer.str();

  // Structural smoke checks: header, balanced braces, one complete-event
  // ("ph":"X") per task, thread-name metadata per GPU.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  std::size_t slices = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, result.graph.num_tasks());
  EXPECT_NE(json.find("GPU 0"), std::string::npos);
  EXPECT_NE(json.find("GPU 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeTraceExport, FailsCleanlyOnBadPath) {
  const RunResult result = run_small();
  EXPECT_FALSE(export_chrome_trace(result.graph, result.platform,
                                   result.trace, "/nonexistent/dir/t.json"));
}

TEST(ReuseStats, CountsLoadsAndReloads) {
  using sim::InspectorEventKind;
  sim::Trace trace;
  trace.events = {
      {1.0, InspectorEventKind::kLoadComplete, 0, 0},
      {2.0, InspectorEventKind::kLoadComplete, 0, 1},
      {3.0, InspectorEventKind::kEvict, 0, 0},
      {4.0, InspectorEventKind::kLoadComplete, 0, 0},  // reload of d0 on gpu0
      {.time_us = 5.0,  // d0 on gpu1 via NVLink
       .kind = InspectorEventKind::kLoadComplete,
       .gpu = 1,
       .id = 0,
       .aux = 1},
  };
  core::TaskGraphBuilder builder;
  const auto d0 = builder.add_data(10);
  const auto d1 = builder.add_data(10);
  builder.add_task(1.0, {d0, d1});
  const core::TaskGraph graph = builder.build();

  const ReuseStats stats = compute_reuse_stats(graph, trace);
  EXPECT_EQ(stats.total_loads, 4u);
  EXPECT_EQ(stats.distinct_data, 2u);
  EXPECT_EQ(stats.reloads, 1u);  // (gpu0, d0) loaded twice
  EXPECT_EQ(stats.max_loads_one_data, 3u);  // d0 across both gpus
  EXPECT_EQ(stats.most_reloaded, d0);
  ASSERT_EQ(stats.histogram.size(), 2u);
  EXPECT_EQ(stats.histogram[0], 2u);  // (gpu0,d1), (gpu1,d0) loaded once
  EXPECT_EQ(stats.histogram[1], 1u);  // (gpu0,d0) loaded twice
}

TEST(ReuseStats, PerfectReuseHasNoReloads) {
  const RunResult result = run_small();  // roomy memory: no evictions
  const ReuseStats stats =
      compute_reuse_stats(result.graph, result.trace);
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_GE(stats.distinct_data, 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  pool.parallel_for(100, [&counts](std::size_t i) {
    counts[i].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ParallelSimulationsAreIndependent) {
  // Run the same deterministic simulation on several threads; results must
  // match the sequential run (engines share no mutable state).
  const core::TaskGraph graph = work::make_matmul_2d({.n = 8, .data_bytes = 10});
  core::Platform platform;
  platform.num_gpus = 2;
  platform.gpu_memory_bytes = 200;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;

  auto run_once = [&] {
    core::DartsScheduler darts;
    sim::RuntimeEngine engine(graph, platform, darts, {.seed = 7});
    return engine.run().total_bytes_loaded();
  };
  const std::uint64_t expected = run_once();

  std::vector<std::uint64_t> results(8, 0);
  util::ThreadPool pool(4);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = run_once();
  });
  for (std::uint64_t value : results) EXPECT_EQ(value, expected);
}

// --- Pinned execution traces ---------------------------------------------
//
// Digests of the execution trace of 13 scenarios that together reach every
// event site a trace records: host and NVLink peer loads, evictions,
// exclusive and shared-occupancy task starts, output write-backs, multi-node
// remote fetches, GPU losses with checkpointed re-runs, and the synthetic
// start/end of fused serving riders. The digests were recorded from the
// engine's former built-in trace (identical, event for event, to the
// run-report collector's copy); a Trace attached as an inspector must
// reproduce them.

/// FNV-1a over (time, kind, gpu, id, peer flag) of every trace event; the
/// kind is a stable code: load 0, evict 1, task start 2, task end 3,
/// write-back 4.
struct TraceDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t events = 0;

  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  void add(double time_us, std::uint8_t kind, core::GpuId gpu,
           std::uint32_t id, std::uint8_t peer) {
    mix(&time_us, sizeof time_us);
    mix(&kind, sizeof kind);
    mix(&gpu, sizeof gpu);
    mix(&id, sizeof id);
    mix(&peer, sizeof peer);
    ++events;
  }
};

TraceDigest digest_of(const sim::Trace& trace) {
  TraceDigest digest;
  for (const sim::InspectorEvent& event : trace.events) {
    std::uint8_t kind = 0;
    std::uint8_t peer = 0;
    switch (event.kind) {
      case sim::InspectorEventKind::kLoadComplete:
        peer = event.aux != 0 ? 1 : 0;
        break;
      case sim::InspectorEventKind::kEvict: kind = 1; break;
      case sim::InspectorEventKind::kTaskStart: kind = 2; break;
      case sim::InspectorEventKind::kTaskEnd: kind = 3; break;
      case sim::InspectorEventKind::kWriteBackEnd: kind = 4; break;
      default: ADD_FAILURE() << "unexpected trace event kind"; break;
    }
    digest.add(event.time_us, kind, event.gpu, event.id, peer);
  }
  return digest;
}

TraceDigest record_engine(const core::TaskGraph& graph,
                          const core::Platform& platform,
                          core::Scheduler& scheduler,
                          const sim::EngineConfig& config,
                          const sim::FaultPlan* plan = nullptr) {
  sim::RuntimeEngine engine(graph, platform, scheduler, config);
  sim::FaultInjector injector(plan != nullptr ? *plan : sim::FaultPlan{});
  if (plan != nullptr) engine.set_fault_injector(&injector);
  sim::Trace trace;
  engine.add_inspector(&trace);
  (void)engine.run();
  return digest_of(trace);
}

TraceDigest record_serve(std::uint64_t seed, std::uint32_t max_batch) {
  core::TaskGraphBuilder builder;
  std::vector<core::DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int t = 0; t < 6; ++t) {
    builder.add_task(5.0, {data[t % 4], data[(t + 1) % 4]});
  }
  const std::vector<core::TaskGraph> templates = {builder.build()};
  std::vector<serve::JobSpec> jobs(24);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) jobs[j].priority = j % 2;

  core::Platform platform;
  platform.num_gpus = 4;
  platform.num_nodes = 2;
  platform.gpu_memory_bytes = 1000;
  platform.host_memory_bytes = 4000;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;

  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 1e5;
  config.arrival.seed = seed;
  config.admission.max_jobs_in_flight = 2;
  config.engine.seed = seed;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy::even(2);
  config.slo.batching = true;
  config.slo.max_batch = max_batch;
  config.slo.marginal_compute = 0.5;
  sched::DmdaScheduler scheduler;
  serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
  sim::Trace trace;
  engine.add_inspector(&trace);
  (void)engine.run();
  return digest_of(trace);
}

core::Platform unit_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

std::vector<std::pair<std::string, TraceDigest>> record_scenarios() {
  std::vector<std::pair<std::string, TraceDigest>> out;
  const core::TaskGraph matmul =
      work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  const core::Platform v100 = core::make_v100_platform(2, 100 * core::kMB);
  {
    sched::DmdaScheduler dmdar;
    out.emplace_back("dmdar-matmul2d", record_engine(matmul, v100, dmdar, {}));
  }
  {
    core::DartsScheduler darts{core::DartsOptions{.use_luf = true}};
    out.emplace_back("darts-luf-matmul2d",
                     record_engine(matmul, v100, darts, {}));
  }
  {
    const core::TaskGraph outputs = work::make_matmul_2d(
        {.n = 8, .data_bytes = 14 * core::kMB, .output_bytes = 3'686'400});
    sched::EagerScheduler eager;
    out.emplace_back(
        "eager-outputs",
        record_engine(outputs, core::make_v100_platform(2, 120 * core::kMB),
                      eager, {}));
  }
  {
    core::Platform nvlink = v100;
    nvlink.nvlink_enabled = true;
    sched::DmdaScheduler dmdar;
    out.emplace_back("nvlink-peer", record_engine(matmul, nvlink, dmdar, {}));
  }
  {
    const core::TaskGraph warps = work::make_matmul_2d(
        {.n = 6, .data_bytes = 14 * core::kMB, .derive_warps = true});
    sched::EagerScheduler eager;
    out.emplace_back("occupancy-sharing",
                     record_engine(warps, v100, eager,
                                   {.occupancy_threshold = 0.9}));
  }
  {
    const core::TaskGraph cholesky =
        work::make_cholesky_tasks({.n = 6, .with_dependencies = true});
    core::Platform cluster = core::make_v100_platform(4, 150 * core::kMB);
    cluster.num_nodes = 2;
    sched::DmdaScheduler dmdar;
    out.emplace_back("cholesky-2node",
                     record_engine(cholesky, cluster, dmdar, {}));
  }
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const core::TaskGraph graph = work::make_random_bipartite(
        {.num_tasks = 60, .num_data = 16, .min_inputs = 1, .max_inputs = 3,
         .data_bytes = 40, .task_flops = 100, .seed = 900 + seed});
    const core::Platform platform = unit_platform(3, 200);
    sim::RandomFaultOptions options;
    options.num_gpus = platform.num_gpus;
    options.horizon_us = 2000.0;
    options.gpu_memory_bytes = platform.gpu_memory_bytes;
    const sim::FaultPlan plan = sim::make_random_fault_plan(seed, options);
    sim::EngineConfig config;
    config.seed = 11 + seed;
    if (seed % 2 == 0) {
      config.checkpoint_interval_us = 40.0;
    } else {
      config.checkpoint_fraction = 0.5;
    }
    sched::DmdaScheduler dmdar;
    out.emplace_back("faults-seed-" + std::to_string(seed),
                     record_engine(graph, platform, dmdar, config, &plan));
  }
  out.emplace_back("slo-serve-a", record_serve(7, 3));
  out.emplace_back("slo-serve-b", record_serve(19, 4));
  return out;
}

TEST(TraceRecorder, ReproducesThePinnedTraces) {
  struct Pinned {
    const char* name;
    std::uint64_t hash;
    std::uint64_t events;
  };
  const std::vector<Pinned> pinned = {
      {"dmdar-matmul2d", 0x6fb32bf501daf613ull, 162},
      {"darts-luf-matmul2d", 0x18353167e8ca6f3bull, 180},
      {"eager-outputs", 0xe20e8d15f91a6a69ull, 281},
      {"nvlink-peer", 0x813cb97f6983d06eull, 162},
      {"occupancy-sharing", 0x112b650f10064ee2ull, 126},
      {"cholesky-2node", 0x1083c317bd272f75ull, 161},
      {"faults-seed-0", 0xde046cdf5008a2b5ull, 263},
      {"faults-seed-1", 0x21672bbacadb2782ull, 291},
      {"faults-seed-2", 0x16fed08a36e39ab5ull, 338},
      {"faults-seed-3", 0x68b040073844258full, 325},
      {"faults-seed-4", 0xc52bb177b237d2aaull, 287},
      {"slo-serve-a", 0x80a6c9f93ceb5593ull, 303},
      {"slo-serve-b", 0x0ff2c26ac9c25985ull, 303},
  };
  const auto recorded = record_scenarios();
  ASSERT_EQ(recorded.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE(pinned[i].name);
    EXPECT_EQ(recorded[i].first, pinned[i].name);
    EXPECT_EQ(recorded[i].second.events, pinned[i].events);
    EXPECT_EQ(recorded[i].second.hash, pinned[i].hash);
  }
}

}  // namespace
}  // namespace mg::analysis
