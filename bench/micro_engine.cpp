// Microbenchmark: end-to-end simulator throughput (simulated tasks per
// wall second) and per-scheduler decision cost, via full engine runs;
// BM_EngineRunChecked repeats them with the InvariantChecker and the
// RunReportCollector attached (what `--check --run-report` runs cost).
#include <benchmark/benchmark.h>

#include <ctime>
#include <memory>

#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "workloads/matmul2d.hpp"

namespace {

using namespace mg;

enum class Kind { kEager, kDmdar, kDarts, kDartsOpti };

std::unique_ptr<core::Scheduler> make(Kind kind) {
  switch (kind) {
    case Kind::kEager:
      return std::make_unique<sched::EagerScheduler>();
    case Kind::kDmdar:
      return std::make_unique<sched::DmdaScheduler>();
    case Kind::kDarts:
      return std::make_unique<core::DartsScheduler>();
    case Kind::kDartsOpti:
      return std::make_unique<core::DartsScheduler>(
          core::DartsOptions{.use_luf = true, .opti = true});
  }
  return nullptr;
}

void BM_EngineRun(benchmark::State& state) {
  const auto kind = static_cast<Kind>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});
  const core::Platform platform = core::make_v100_platform(2);

  double pop_us = 0.0;
  for (auto _ : state) {
    auto scheduler = make(kind);
    sim::RuntimeEngine engine(graph, platform, *scheduler);
    const core::RunMetrics metrics = engine.run();
    benchmark::DoNotOptimize(metrics.makespan_us);
    pop_us = metrics.scheduler_pop_us;
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
  state.counters["sched_pop_ms"] = pop_us / 1e3;
}
BENCHMARK(BM_EngineRun)
    ->Args({static_cast<long>(Kind::kEager), 32})
    ->Args({static_cast<long>(Kind::kDmdar), 32})
    ->Args({static_cast<long>(Kind::kDarts), 32})
    ->Args({static_cast<long>(Kind::kDartsOpti), 32})
    ->Args({static_cast<long>(Kind::kDarts), 64})
    ->Args({static_cast<long>(Kind::kDartsOpti), 64})
    ->Unit(benchmark::kMillisecond);

void BM_EngineRunChecked(benchmark::State& state) {
  const auto kind = static_cast<Kind>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});
  const core::Platform platform = core::make_v100_platform(2);

  std::uint64_t events = 0;
  double cpu_s = 0.0;
  for (auto _ : state) {
    const std::clock_t start = std::clock();
    auto scheduler = make(kind);
    sim::RuntimeEngine engine(graph, platform, *scheduler);
    sim::InvariantChecker checker;
    sim::RunReportCollector collector;
    engine.add_inspector(&checker);
    engine.add_inspector(&collector);
    const core::RunMetrics metrics = engine.run();
    benchmark::DoNotOptimize(metrics.makespan_us);
    events = checker.events_checked();
    cpu_s += static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
  // CPU nanoseconds per inspector event, engine and scheduler included.
  state.counters["ns_per_event"] =
      cpu_s * 1e9 /
      (static_cast<double>(events) * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EngineRunChecked)
    ->Args({static_cast<long>(Kind::kEager), 32})
    ->Args({static_cast<long>(Kind::kDmdar), 32})
    ->Args({static_cast<long>(Kind::kDarts), 32})
    ->Args({static_cast<long>(Kind::kDarts), 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
