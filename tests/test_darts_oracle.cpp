// Decision-identity oracle for DARTS. The planner keeps per-GPU counts of
// free tasks instead of rescanning every consumer at each decision; these
// tests pin its decisions to the ones the rescanning planner made. Each case
// runs one DARTS variant on one input and compares its pop and report
// digests (oracle_support.hpp) against values recorded with the rescanning
// planner.
// Debug builds additionally recount n(D) (and m(D) for 3inputs) by the scan
// at every planning decision inside the scheduler (MG_DCHECK).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/validate.hpp"
#include "cluster/hierarchical.hpp"
#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "oracle_support.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace mg::core {
namespace {

using oracle::BatchSetup;
using oracle::Fnv;
using oracle::Outcome;
using oracle::rejoin_when_drained;

// ---- Cases ------------------------------------------------------------------

constexpr const char* kContext = "darts-oracle";

Outcome run_batch(const TaskGraph& graph, const Platform& platform,
                  Scheduler& scheduler, const BatchSetup& setup = {}) {
  return oracle::run_batch(kContext, graph, platform, scheduler, setup);
}

Outcome run_serving(const DartsOptions& options) {
  DartsScheduler darts(options);
  return oracle::run_serving(kContext, darts);
}

constexpr DartsOptions kLuf{.use_luf = true};
constexpr DartsOptions kLru{.use_luf = false};
constexpr DartsOptions kOpti{.use_luf = true, .opti = true};
constexpr DartsOptions kThreshold{.use_luf = true, .scan_threshold = 6};
constexpr DartsOptions kThree{.use_luf = true, .three_inputs = true};
constexpr DartsOptions kOptiThree{
    .use_luf = true, .three_inputs = true, .opti = true};
constexpr DartsOptions kThresholdThree{
    .use_luf = true, .three_inputs = true, .scan_threshold = 6};
constexpr DartsOptions kTier{.use_luf = true, .tier_boost = 2.0};

Outcome run_case(const std::string& input, const DartsOptions& options) {
  if (input == "serving") return run_serving(options);
  if (input == "hier") {
    const TaskGraph graph = work::make_matmul_2d({.n = 12});
    Platform platform = make_v100_platform(4, 130 * kMB);
    platform.num_nodes = 2;
    platform.host_memory_bytes = 200 * kMB;
    cluster::HierarchicalScheduler hier(
        [options] { return std::make_unique<DartsScheduler>(options); });
    return run_batch(graph, platform, hier);
  }
  DartsScheduler darts(options);
  if (input == "matmul2d") {
    const TaskGraph graph = work::make_matmul_2d({.n = 14});
    return run_batch(graph, make_v100_platform(2, 160 * kMB), darts);
  }
  if (input == "matmul3d") {
    const TaskGraph graph = work::make_matmul_3d({.n = 4});
    return run_batch(graph, make_v100_platform(3, 110 * kMB), darts);
  }
  if (input == "cholesky") {
    const TaskGraph graph = work::make_cholesky_tasks({.n = 9});
    return run_batch(graph, make_v100_platform(2, 60 * kMB), darts);
  }
  if (input == "sparse") {
    const TaskGraph graph =
        work::make_sparse_matmul({.n = 40, .keep_fraction = 0.1, .seed = 4});
    return run_batch(graph, make_v100_platform(4, 100 * kMB), darts);
  }
  if (input == "cholesky-dag") {
    const TaskGraph graph =
        work::make_cholesky_tasks({.n = 8, .with_dependencies = true});
    return run_batch(graph, make_v100_platform(2, 50 * kMB), darts);
  }
  if (input == "gpu-loss") {
    const TaskGraph graph = work::make_matmul_2d({.n = 12});
    BatchSetup setup;
    setup.faults.emplace().gpu_losses.push_back({4000.0, 1});
    return run_batch(graph, make_v100_platform(3, 130 * kMB), darts, setup);
  }
  if (input == "drain-join") {
    const TaskGraph graph = work::make_matmul_2d({.n = 12});
    Platform platform = make_v100_platform(4, 130 * kMB);
    platform.num_nodes = 2;
    platform.host_memory_bytes = 200 * kMB;
    BatchSetup setup;
    setup.arm = [](sim::RuntimeEngine& engine) {
      engine.event_queue().schedule_at(
          3000.0, [&engine] { engine.begin_node_drain(1); });
      engine.event_queue().schedule_at(
          6000.0, [&engine] { rejoin_when_drained(engine, 1); });
    };
    return run_batch(graph, platform, darts, setup);
  }
  if (input == "occupancy") {
    const TaskGraph graph =
        work::make_matmul_2d({.n = 10, .derive_warps = true});
    BatchSetup setup;
    setup.config.occupancy_threshold = 0.9;
    return run_batch(graph, make_v100_platform(2, 120 * kMB), darts, setup);
  }
  ADD_FAILURE() << "unknown input " << input;
  return {};
}

struct Golden {
  const char* input;
  const char* variant;
  DartsOptions options;
  std::uint64_t pops;
  std::uint64_t pop_digest;
  std::uint64_t report_digest;
};

// Recorded with the rescanning planner (every n(D) recomputed from the
// consumers of every listed data at each decision).
const Golden kGolden[] = {
    {"matmul2d", "LUF", kLuf,
     234, 0x893b22bf9c37cfaaull, 0xc59beec8197ceaeeull},
    {"matmul2d", "LRU", kLru,
     232, 0x882b9529f9bf515bull, 0x06f48cbc93c98b9bull},
    {"matmul2d", "OPTI", kOpti,
     242, 0x17de07ae9198ac0aull, 0x52e0c7d160323f59ull},
    {"matmul2d", "threshold", kThreshold,
     238, 0x0b08f1146da9531bull, 0xedd7e7027475221bull},
    {"matmul2d", "3inputs", kThree,
     234, 0x2db045ed3fa49cebull, 0xfddb67454567177bull},
    {"matmul3d", "LUF", kLuf,
     148, 0xec47cde13ffe3e71ull, 0xdfb70fdf4501103aull},
    {"matmul3d", "OPTI", kOpti,
     147, 0xbd66b1d93e3c0d37ull, 0xd1b58f44e2dc9442ull},
    {"matmul3d", "threshold", kThreshold,
     163, 0xfb538452086bb254ull, 0x8a938fc9d3206f46ull},
    {"matmul3d", "3inputs", kThree,
     150, 0x15dd07ade29b7468ull, 0x1ee4abd4867c11d3ull},
    {"cholesky", "LUF", kLuf,
     217, 0x37b03d6fb32b7d56ull, 0x87ce1a70b8b90d6full},
    {"cholesky", "LRU", kLru,
     205, 0x5a44309c278b7287ull, 0xf42838c4229b6431ull},
    {"cholesky", "OPTI", kOpti,
     220, 0xde9b7007b7a43a6aull, 0x314eba20c5433b51ull},
    {"cholesky", "threshold", kThreshold,
     213, 0xfb368f2a2bad4ba6ull, 0x6d81f9dee77b4ecaull},
    {"cholesky", "3inputs", kThree,
     215, 0x39d3a20dfa95a99full, 0x73749c1d972617abull},
    {"cholesky", "OPTI-3inputs", kOptiThree,
     217, 0x11f547046f5e8256ull, 0xcc71c6c0ae714345ull},
    {"cholesky", "threshold-3inputs", kThresholdThree,
     218, 0x3a98abe9aebcd332ull, 0x37d7242883de8dd7ull},
    {"sparse", "LUF", kLuf,
     298, 0x9776fcabaf62f06cull, 0xfe993af6c10ee74eull},
    {"sparse", "LRU", kLru,
     338, 0x376a2bb4bb77c58eull, 0x2acd10a61eb553c8ull},
    {"sparse", "3inputs", kThree,
     320, 0x09be972fd557e917ull, 0x6248ab8deccffe24ull},
    {"cholesky-dag", "LUF", kLuf,
     403, 0xf3f5906198a9ebb6ull, 0x13f41b70b523b81dull},
    {"cholesky-dag", "3inputs", kThree,
     425, 0xa789e6587d9b4157ull, 0x8359db268654688aull},
    {"cholesky-dag", "OPTI", kOpti,
     385, 0x50743fb77341fbfeull, 0xe192107f8d4495d9ull},
    {"serving", "LUF", kLuf,
     1314, 0x923d6d358bf62434ull, 0x2505143cac578b67ull},
    {"serving", "tier", kTier,
     1103, 0x0c0f9e9d11729a71ull, 0x861dabda9ea0f2cfull},
    {"serving", "3inputs", kThree,
     1004, 0x24510d3c4d891c2cull, 0x2022dd50f8094583ull},
    {"gpu-loss", "LUF", kLuf,
     196, 0x470c66089b8d2281ull, 0x0a43a03f3de06ae6ull},
    {"gpu-loss", "3inputs", kThree,
     191, 0xf8d24707ff2ed1b7ull, 0x30d3f7e09f67f8e4ull},
    {"drain-join", "LUF", kLuf,
     272, 0xc7eff282bd2cc380ull, 0xea54cad9e7e3a56bull},
    {"drain-join", "LRU", kLru,
     278, 0x0780058cd8c5302aull, 0xcd3bc9b60f0967b0ull},
    {"hier", "LUF", kLuf,
     274, 0x599e9fb58d5349f8ull, 0xb65ad5e40e5d3864ull},
    {"hier", "3inputs", kThree,
     279, 0x7ebcb825d5166c14ull, 0x63a8b5fe992d2a05ull},
    {"occupancy", "LUF", kLuf,
     147, 0xe64dffc76c3b5827ull, 0x0c275c3a22b5b993ull},
};

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << golden.input << " / " << golden.variant;
}

class DartsOracle : public testing::TestWithParam<Golden> {};

TEST_P(DartsOracle, DecisionsMatchTheRescanningPlanner) {
  const Golden& golden = GetParam();
  const Outcome outcome = run_case(golden.input, golden.options);
  char line[160];
  std::snprintf(line, sizeof line,
                "{\"%s\", \"%s\", ..., %llu, 0x%016llxull, 0x%016llxull}",
                golden.input, golden.variant,
                static_cast<unsigned long long>(outcome.pops),
                static_cast<unsigned long long>(outcome.pop_digest),
                static_cast<unsigned long long>(outcome.report_digest));
  EXPECT_EQ(outcome.pops, golden.pops) << line;
  EXPECT_EQ(outcome.pop_digest, golden.pop_digest) << line;
  EXPECT_EQ(outcome.report_digest, golden.report_digest) << line;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DartsOracle, testing::ValuesIn(kGolden),
    [](const testing::TestParamInfo<Golden>& info) {
      std::string name = std::string(info.param.input) + "_" +
                         info.param.variant;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return std::isalnum(static_cast<unsigned char>(c)) == 0; },
          '_');
      return name;
    });

// ---- Scheduler-level drivers ------------------------------------------------

Platform one_gpu() {
  Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = 1000;
  return platform;
}

/// MemoryView over an explicit present-or-fetching set.
class MirrorMemory final : public MemoryView {
 public:
  explicit MirrorMemory(std::uint32_t num_data) : present_(num_data, false) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }
  std::vector<bool> present_;
};

TEST(DartsIncremental, NameCarriesTheVariantTag) {
  EXPECT_EQ(darts_variant_name({.use_luf = true}), "DARTS+LUF");
  EXPECT_EQ(darts_variant_name({.use_luf = true,
                                .three_inputs = true,
                                .opti = true,
                                .scan_threshold = 5,
                                .tier_boost = 1.0}),
            "DARTS+LUF+OPTI+threshold-3inputs+tier");
}

TEST(DartsIncremental, MatchesScanDecisionsWithoutPrefetchEffects) {
  // Loads announced immediately, like a pipeline-depth-1 run.
  const TaskGraph graph = work::make_matmul_2d({.n = 5, .data_bytes = 10});
  DartsScheduler darts{DartsOptions{.use_luf = true}};
  darts.prepare(graph, one_gpu(), 9);

  MirrorMemory memory(graph.num_data());
  std::vector<TaskId> order;
  for (int step = 0; step < 25; ++step) {
    const TaskId task = darts.pop_task(0, memory);
    ASSERT_NE(task, kInvalidTask) << "step " << step;
    order.push_back(task);
    for (DataId data : graph.inputs(task)) {
      if (!memory.present_[data]) {
        memory.present_[data] = true;
        darts.notify_data_loaded(0, data);
      }
    }
    darts.notify_task_complete(0, task);
  }
  EXPECT_EQ(darts.pop_task(0, memory), kInvalidTask);
  // Recorded with the rescanning planner.
  const std::vector<TaskId> expected = {15, 17, 0, 2, 4, 19, 10, 12, 14, 20, 22, 24, 1, 11, 16, 21, 5, 6, 7, 9, 3, 8, 13, 18, 23};
  EXPECT_EQ(order, expected) << testing::PrintToString(order);
}

TEST(DartsIncremental, CountersSurviveEvictionChurn) {
  // Random load/evict churn; the scheduler must issue every task exactly
  // once, in the order the rescanning planner chose.
  const TaskGraph graph = work::make_random_bipartite(
      {.num_tasks = 80, .num_data = 16, .min_inputs = 1, .max_inputs = 3,
       .data_bytes = 10, .seed = 21});
  DartsScheduler darts{DartsOptions{.use_luf = true}};
  darts.prepare(graph, one_gpu(), 3);

  MirrorMemory memory(graph.num_data());
  util::Rng rng(7);
  std::vector<int> executed(graph.num_tasks(), 0);
  Fnv order;
  std::uint32_t done = 0;
  while (done < graph.num_tasks()) {
    const TaskId task = darts.pop_task(0, memory);
    ASSERT_NE(task, kInvalidTask);
    order.add(task);
    for (DataId data : graph.inputs(task)) {
      if (!memory.present_[data]) {
        memory.present_[data] = true;
        darts.notify_data_loaded(0, data);
      }
    }
    // Random eviction of an unrelated resident data between tasks.
    if (rng.chance(0.6)) {
      const auto inputs = graph.inputs(task);
      std::vector<DataId> evictable;
      for (DataId data = 0; data < graph.num_data(); ++data) {
        if (memory.present_[data] &&
            std::find(inputs.begin(), inputs.end(), data) == inputs.end()) {
          evictable.push_back(data);
        }
      }
      if (!evictable.empty()) {
        const DataId victim = evictable[rng.pick_index(evictable)];
        memory.present_[victim] = false;
        darts.on_evict(0, victim);
        darts.notify_data_evicted(0, victim);
      }
    }
    darts.notify_task_complete(0, task);
    ++executed[task];
    ++done;
  }
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    EXPECT_EQ(executed[task], 1);
  }
  EXPECT_EQ(order.hash, 0xd1b4b2ad507efae3ull) << std::hex << order.hash;
}

TEST(DartsIncremental, FreeCountMatchesFromScratchRecount) {
  // Two GPUs, lagging completions, and memory changes the scheduler never
  // hears about: fetches that start without notify_data_loaded and wipes
  // without notify_data_evicted. Decisions read n(D) off the memory views,
  // so the pop sequence must match the one the rescanning planner chose
  // (and Debug builds recount n(D) from scratch at each decision).
  const TaskGraph graph = work::make_random_bipartite(
      {.num_tasks = 60, .num_data = 14, .min_inputs = 1, .max_inputs = 3,
       .data_bytes = 10, .seed = 33});
  for (const DartsOptions options :
       {DartsOptions{.use_luf = true},
        DartsOptions{.use_luf = true, .three_inputs = true}}) {
    DartsScheduler darts{options};
    Platform platform;
    platform.num_gpus = 2;
    platform.gpu_memory_bytes = 1000;
    darts.prepare(graph, platform, 5);

    std::vector<MirrorMemory> memory(2, MirrorMemory(graph.num_data()));
    std::vector<std::vector<TaskId>> uncompleted(2);
    util::Rng rng(17);
    Fnv order;
    std::uint32_t done = 0;
    while (done < graph.num_tasks()) {
      const GpuId gpu = static_cast<GpuId>(rng.below(2));
      const TaskId task = darts.pop_task(gpu, memory[gpu]);
      order.add(gpu);
      order.add(task);
      if (task == kInvalidTask) {
        // Everything left is popped-but-uncompleted: drain one.
        bool drained = false;
        for (GpuId g = 0; g < 2 && !drained; ++g) {
          if (!uncompleted[g].empty()) {
            darts.notify_task_complete(g, uncompleted[g].front());
            uncompleted[g].erase(uncompleted[g].begin());
            ++done;
            drained = true;
          }
        }
        ASSERT_TRUE(drained) << "scheduler starved with tasks remaining";
        continue;
      }
      uncompleted[gpu].push_back(task);
      for (DataId data : graph.inputs(task)) {
        if (!memory[gpu].present_[data]) {
          memory[gpu].present_[data] = true;
          darts.on_load(gpu, data);
          // A third of the loads stay "fetching": never announced.
          if (!rng.chance(0.33)) darts.notify_data_loaded(gpu, data);
        }
      }
      // Random eviction (announced) or wipe (silent) of resident data no
      // uncompleted task still reads.
      if (rng.chance(0.5)) {
        std::vector<DataId> evictable;
        for (DataId data = 0; data < graph.num_data(); ++data) {
          if (!memory[gpu].present_[data]) continue;
          bool in_use = false;
          for (TaskId pending : uncompleted[gpu]) {
            const auto inputs = graph.inputs(pending);
            if (std::find(inputs.begin(), inputs.end(), data) !=
                inputs.end()) {
              in_use = true;
              break;
            }
          }
          if (!in_use) evictable.push_back(data);
        }
        if (!evictable.empty()) {
          const DataId victim = evictable[rng.pick_index(evictable)];
          memory[gpu].present_[victim] = false;
          if (rng.chance(0.75)) {
            darts.on_evict(gpu, victim);
            darts.notify_data_evicted(gpu, victim);
          }
        }
      }
      // Completions lag pops so several tasks sit in the buffer at once.
      while (uncompleted[gpu].size() > 2 ||
             (!uncompleted[gpu].empty() && rng.chance(0.4))) {
        darts.notify_task_complete(gpu, uncompleted[gpu].front());
        uncompleted[gpu].erase(uncompleted[gpu].begin());
        ++done;
      }
    }
    const std::uint64_t expected =
        options.three_inputs ? 0xbccc50fcb7fc3896ull : 0x3444f9fd401ee456ull;
    EXPECT_EQ(order.hash, expected)
        << darts_variant_name(options) << " " << std::hex << order.hash;
  }
}

class IncrementalEndToEnd : public testing::TestWithParam<int> {};

TEST_P(IncrementalEndToEnd, RunsCompleteAndStayClose) {
  const TaskGraph graph = [&]() -> TaskGraph {
    switch (GetParam()) {
      case 0:
        return work::make_matmul_2d({.n = 12, .data_bytes = 14 * kMB});
      case 1:
        return work::make_cholesky_tasks({.n = 10});
      default:
        return work::make_sparse_matmul(
            {.n = 40, .keep_fraction = 0.05, .seed = 4});
    }
  }();
  const Platform platform = make_v100_platform(2, 150 * kMB);

  DartsScheduler darts{DartsOptions{.use_luf = true}};
  sim::EngineConfig config;
  config.seed = 11;
  sim::RuntimeEngine engine(graph, platform, darts, config);
  sim::Trace trace;
  engine.add_inspector(&trace);
  const RunMetrics metrics = engine.run();
  const auto validation =
      analysis::validate_trace(graph, platform, trace);
  EXPECT_TRUE(validation.ok) << validation.error;
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
  // Bytes the rescanning planner loaded on the same run.
  const std::uint64_t expected[] = {602000000, 342835200, 1484000000};
  EXPECT_EQ(metrics.total_bytes_loaded(),
            expected[static_cast<std::size_t>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(Workloads, IncrementalEndToEnd,
                         testing::Values(0, 1, 2));

}  // namespace
}  // namespace mg::core
