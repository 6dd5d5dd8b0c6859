// Decision-identity oracle for DMDA/DMDAR. The Ready pop keeps per-GPU
// missing bytes in a min tree instead of rescanning every queued task at
// each pop; these tests pin its decisions to the ones the scan made. Each
// case runs one DMDA variant on one input and compares its pop and report
// digests (oracle_support.hpp) against values recorded with the scan.
// Debug builds additionally compare every indexed pick with pop_ready over
// the live queue inside the scheduler (MG_DCHECK).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "cluster/hierarchical.hpp"
#include "core/task_graph.hpp"
#include "oracle_support.hpp"
#include "sched/dmda.hpp"
#include "workloads/workloads.hpp"

namespace mg::sched {
namespace {

using core::kMB;
using core::make_v100_platform;
using core::Platform;
using core::TaskGraph;
using oracle::BatchSetup;
using oracle::Outcome;

constexpr const char* kContext = "dmdar-oracle";

struct Variant {
  bool ready = true;
  std::size_t window = kDefaultReadyWindow;
  bool push_prefetch = true;
};

constexpr Variant kDmdar{};
constexpr Variant kDmda{.ready = false};
constexpr Variant kWindow1{.window = 1};
constexpr Variant kWindow4{.window = 4};
constexpr Variant kWindow64{.window = 64};
constexpr Variant kNoPrefetch{.push_prefetch = false};

std::unique_ptr<DmdaScheduler> make(const Variant& variant) {
  return std::make_unique<DmdaScheduler>(variant.ready, variant.window,
                                         variant.push_prefetch);
}

Outcome run_case(const std::string& input, const Variant& variant) {
  if (input == "serving") return oracle::run_serving(kContext, *make(variant));
  if (input == "hier") {
    const TaskGraph graph = work::make_matmul_2d({.n = 12});
    Platform platform = make_v100_platform(4, 130 * kMB);
    platform.num_nodes = 2;
    platform.host_memory_bytes = 200 * kMB;
    cluster::HierarchicalScheduler hier([variant] { return make(variant); });
    return oracle::run_batch(kContext, graph, platform, hier);
  }
  const std::unique_ptr<DmdaScheduler> dmda = make(variant);
  if (input == "matmul2d") {
    const TaskGraph graph = work::make_matmul_2d({.n = 30});
    return oracle::run_batch(kContext, graph, make_v100_platform(2, 120 * kMB),
                             *dmda);
  }
  if (input == "matmul2d-shuffled") {
    const TaskGraph graph =
        work::make_matmul_2d({.n = 20, .randomize_order = true, .seed = 3});
    return oracle::run_batch(kContext, graph, make_v100_platform(4, 150 * kMB),
                             *dmda);
  }
  if (input == "sparse") {
    const TaskGraph graph =
        work::make_sparse_matmul({.n = 40, .keep_fraction = 0.1, .seed = 4});
    return oracle::run_batch(kContext, graph, make_v100_platform(4, 100 * kMB),
                             *dmda);
  }
  if (input == "cholesky-dag") {
    const TaskGraph graph =
        work::make_cholesky_tasks({.n = 8, .with_dependencies = true});
    return oracle::run_batch(kContext, graph, make_v100_platform(2, 50 * kMB),
                             *dmda);
  }
  if (input == "gpu-loss") {
    const TaskGraph graph = work::make_matmul_2d({.n = 12});
    BatchSetup setup;
    setup.faults.emplace().gpu_losses.push_back({4000.0, 1});
    return oracle::run_batch(kContext, graph, make_v100_platform(3, 130 * kMB),
                             *dmda, setup);
  }
  if (input == "gpu-loss-dag") {
    const TaskGraph graph =
        work::make_cholesky_tasks({.n = 8, .with_dependencies = true});
    BatchSetup setup;
    setup.faults.emplace().gpu_losses.push_back({20000.0, 0});
    return oracle::run_batch(kContext, graph, make_v100_platform(3, 50 * kMB),
                             *dmda, setup);
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
          6000.0, [&engine] { oracle::rejoin_when_drained(engine, 1); });
    };
    return oracle::run_batch(kContext, graph, platform, *dmda, setup);
  }
  if (input == "occupancy") {
    const TaskGraph graph =
        work::make_matmul_2d({.n = 10, .derive_warps = true});
    BatchSetup setup;
    setup.config.occupancy_threshold = 0.9;
    return oracle::run_batch(kContext, graph, make_v100_platform(2, 120 * kMB),
                             *dmda, setup);
  }
  ADD_FAILURE() << "unknown input " << input;
  return {};
}

struct Golden {
  const char* input;
  const char* variant_name;
  Variant variant;
  std::uint64_t pops;
  std::uint64_t pop_digest;
  std::uint64_t report_digest;
};

// Recorded with the scan (pop_ready over each GPU's whole queue at every
// pop).
const Golden kGolden[] = {
    {"matmul2d", "DMDAR", kDmdar,
     948, 0x323391cb4153396full, 0x6034a7d5ae4c8676ull},
    {"matmul2d", "DMDA", kDmda,
     940, 0xc631f4c7c8c8db6full, 0xead15b79c76fe195ull},
    {"matmul2d", "window1", kWindow1,
     940, 0xc631f4c7c8c8db6full, 0xcb883977ab46de6bull},
    {"matmul2d", "window4", kWindow4,
     940, 0xc631f4c7c8c8db6full, 0xcb883977ab46de6bull},
    {"matmul2d", "window64", kWindow64,
     948, 0x323391cb4153396full, 0x6034a7d5ae4c8676ull},
    {"matmul2d", "no-prefetch", kNoPrefetch,
     948, 0x377eaf9df2ff54efull, 0x6034a7d5ae4c8676ull},
    {"matmul2d-shuffled", "DMDAR", kDmdar,
     621, 0xdf72f7ced3b07b6dull, 0x710866b5a8f51fc3ull},
    {"matmul2d-shuffled", "DMDA", kDmda,
     638, 0x8aaeda244ba8c6eeull, 0xc470a6aac6393de5ull},
    {"matmul2d-shuffled", "window4", kWindow4,
     585, 0xbde854a104b9e023ull, 0x5c8bfa9cb51e6da5ull},
    {"sparse", "DMDAR", kDmdar,
     383, 0xe4e48c8b42a3f170ull, 0xad287a9aecb5cd56ull},
    {"cholesky-dag", "DMDAR", kDmdar,
     403, 0xf7ffc7f5932f0c2eull, 0x86ef0709a0628725ull},
    {"cholesky-dag", "DMDA", kDmda,
     446, 0xb3e7a5888e4529d2ull, 0x77874cd5be9fc362ull},
    {"cholesky-dag", "window1", kWindow1,
     446, 0xb3e7a5888e4529d2ull, 0x76103577480e9960ull},
    {"cholesky-dag", "window4", kWindow4,
     428, 0x94b557ec659b1cbbull, 0xb992b7e77af12690ull},
    {"cholesky-dag", "window64", kWindow64,
     403, 0xf7ffc7f5932f0c2eull, 0x86ef0709a0628725ull},
    {"serving", "DMDAR", kDmdar,
     1428, 0xa2680d6c134ca3b4ull, 0x4042fac0542f18ddull},
    {"serving", "DMDA", kDmda,
     2036, 0x16a61991f49b0640ull, 0x4d5a4946bb86c60full},
    {"serving", "window4", kWindow4,
     1534, 0xdf7436593a866b66ull, 0xede445a1028ede40ull},
    {"occupancy", "DMDAR", kDmdar,
     138, 0xe3f04bf20a10c32bull, 0x2e3c9c838d55f873ull},
    {"occupancy", "window4", kWindow4,
     138, 0xe3f04bf20a10c32bull, 0x2e3c9c838d55f873ull},
    {"occupancy", "DMDA", kDmda,
     138, 0xe3f04bf20a10c32bull, 0xe2f0c2ac3b4b0b39ull},
    {"gpu-loss", "DMDAR", kDmdar,
     189, 0xab63023339e768fbull, 0x4f5a358976d72089ull},
    {"gpu-loss", "DMDA", kDmda,
     187, 0xdd9141983a4f6811ull, 0xabc3b89d1f112bafull},
    {"gpu-loss-dag", "DMDAR", kDmdar,
     566, 0x075bb9363a9cc572ull, 0x5825df1bb54ef49eull},
    {"drain-join", "DMDAR", kDmdar,
     416, 0x38247a7d9e71b6e2ull, 0xeab3def39b6ff527ull},
    {"hier", "DMDAR", kDmdar,
     271, 0xb2c4cd185ab9ccf5ull, 0x0391399b772c71f4ull},
    {"hier", "DMDA", kDmda,
     258, 0xb6d1cd9baf2f8c7aull, 0x1d0bf76158b86248ull},
};

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << golden.input << " / " << golden.variant_name;
}

class DmdarOracle : public testing::TestWithParam<Golden> {};

TEST_P(DmdarOracle, DecisionsMatchTheScan) {
  const Golden& golden = GetParam();
  const Outcome outcome = run_case(golden.input, golden.variant);
  char line[160];
  std::snprintf(line, sizeof line,
                "{\"%s\", \"%s\", ..., %llu, 0x%016llxull, 0x%016llxull}",
                golden.input, golden.variant_name,
                static_cast<unsigned long long>(outcome.pops),
                static_cast<unsigned long long>(outcome.pop_digest),
                static_cast<unsigned long long>(outcome.report_digest));
  EXPECT_EQ(outcome.pops, golden.pops) << line;
  EXPECT_EQ(outcome.pop_digest, golden.pop_digest) << line;
  EXPECT_EQ(outcome.report_digest, golden.report_digest) << line;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DmdarOracle, testing::ValuesIn(kGolden),
    [](const testing::TestParamInfo<Golden>& info) {
      std::string name = std::string(info.param.input) + "_" +
                         info.param.variant_name;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return std::isalnum(static_cast<unsigned char>(c)) == 0; },
          '_');
      return name;
    });

}  // namespace
}  // namespace mg::sched
