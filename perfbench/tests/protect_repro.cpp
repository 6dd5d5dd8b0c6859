// Repro of the known eviction-protection deadlock that keeps
// slo.protect_min_priority out of the serve-cluster workload.
//
// With protection on, the inputs of every in-flight high-tier job are
// vetoed from eviction. When those protected inputs fill every GPU, no
// eviction victim is left and the run stops with
// `DeadlockError: event queue empty`. Two configurations show it:
//   1. bench/bench_serve.cpp's scenario (4 GPUs x 200 MB, Poisson 500
//      jobs/s, <= 6 in flight, two tiers, batching) with DARTS+LUF and
//      2 000 jobs;
//   2. DMDAR, <= 8 jobs in flight, 100 jobs/s, 4 GPUs x 200 MB, 125 jobs
//      of a matmul2d N=16 template (32 000 tasks).
// Each is run with protection on and off. Not a test: it prints what
// happened and exits 0 either way; once the defect is fixed every line
// reads "completed".
//
//   perfbench_protect_repro
#include <cstdio>
#include <memory>
#include <vector>

#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "serve/serve_engine.hpp"
#include "sim/errors.hpp"
#include "workloads/matmul2d.hpp"

namespace {

struct Scenario {
  const char* name;
  bool darts;
  std::uint32_t template_n;
  std::uint32_t jobs;
  double rate;
  std::uint32_t in_flight;
};

void run(const Scenario& scenario, std::uint32_t protect_min_priority) {
  using namespace mg;
  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d({.n = scenario.template_n}));
  std::vector<serve::JobSpec> jobs(scenario.jobs);
  for (std::uint32_t j = 0; j < scenario.jobs; ++j) jobs[j].priority = j % 2;
  const core::Platform platform =
      core::make_v100_platform(4, 200 * core::kMB);

  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = scenario.rate;
  config.arrival.seed = 42;
  config.admission.max_jobs_in_flight = scenario.in_flight;
  config.engine.seed = 42;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1, .deadline_us = 80e3, .admission_weight = 4}}};
  config.slo.protect_min_priority = protect_min_priority;
  config.slo.batching = true;
  config.slo.max_batch = 4;
  config.slo.marginal_compute = 0.4;

  std::unique_ptr<core::Scheduler> scheduler;
  if (scenario.darts) {
    scheduler = std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = true});
  } else {
    scheduler = std::make_unique<sched::DmdaScheduler>();
  }
  serve::ServeEngine engine(templates, jobs, platform, *scheduler, config);
  std::printf("%-40s protect=%u: ", scenario.name, protect_min_priority);
  try {
    const serve::ServeResult result = engine.run();
    std::printf("completed (%u jobs)\n", result.serving.jobs_completed);
  } catch (const sim::EngineError& error) {
    const std::string what = error.what();
    std::printf("%s\n", what.substr(0, what.find('\n')).c_str());
  }
}

}  // namespace

int main() {
  const Scenario scenarios[] = {
      {"bench_serve config, DARTS+LUF, 2000 jobs", true, 8, 2000, 500.0, 6},
      {"DMDAR, <=8 in flight, 100 jobs/s, N=16", false, 16, 125, 100.0, 8},
  };
  for (const Scenario& scenario : scenarios) {
    run(scenario, 1);
    run(scenario, 0);
  }
  return 0;
}
