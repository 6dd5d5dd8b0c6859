// JSON tests: pinned bytes of every document the simulator writes (fault
// plans, Chrome traces, run-report batch files, a network-fault run
// report), the escaping of user-supplied text (report contexts, task
// labels) and the strictness of the parser. The pins are FNV-1a digests
// plus byte lengths of the emitted text; any change to the format, however
// small, shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_export.hpp"
#include "core/darts.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "sim/run_report.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

namespace mg {
namespace {

struct Digest {
  std::uint64_t hash = 14695981039346656037ull;
  std::size_t bytes = 0;
};

Digest digest_of(std::string_view text) {
  Digest digest;
  for (const char c : text) {
    digest.hash ^= static_cast<unsigned char>(c);
    digest.hash *= 1099511628211ull;
  }
  digest.bytes = text.size();
  return digest;
}

void expect_pinned(std::string_view text, std::uint64_t hash,
                   std::size_t bytes) {
  const Digest digest = digest_of(text);
  EXPECT_EQ(digest.bytes, bytes);
  EXPECT_EQ(digest.hash, hash) << std::hex << "0x" << digest.hash << "\n"
                               << text.substr(0, 2000);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
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

// ---- Fault plans ------------------------------------------------------------

/// Every section, finite and omitted end_us, both partition values, and
/// doubles that need all 17 significant digits to round-trip.
sim::FaultPlan full_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 18446744073709551557ull;
  plan.gpu_losses.push_back({.time_us = 0.1, .gpu = 1});
  plan.gpu_losses.push_back({.time_us = 1.0 / 3.0, .gpu = 3});
  plan.node_losses.push_back({.time_us = 2.0 / 3.0 * 1e4, .node = 1});
  plan.transfer_faults.push_back(
      {.start_us = 10.0,
       .end_us = 123456.789012345678,
       .scope = sim::FaultPlan::TransferScope::kNvlink,
       .probability = 0.3,
       .max_failures_per_transfer = 5});
  plan.transfer_faults.push_back(
      {.start_us = 1e-7,
       .scope = sim::FaultPlan::TransferScope::kHostBus,
       .probability = 1.0 / 7.0});
  plan.capacity_shocks.push_back(
      {.time_us = 5e5, .gpu = 0, .capacity_bytes = 123456789012ull});
  plan.link_faults.push_back({.src = 0,
                              .dst = 1,
                              .start_us = 100.0,
                              .end_us = 900.25,
                              .bandwidth_factor = 4.0 / 3.0,
                              .straggler_us = 50.0,
                              .partition = false});
  plan.link_faults.push_back(
      {.src = 1, .dst = 2, .start_us = 1000.0, .partition = true});
  return plan;
}

TEST(JsonPins, FaultPlanCoveringEverySection) {
  expect_pinned(sim::fault_plan_to_json(full_fault_plan()),
                0x2238eb13421210a0ull, 768);
}

TEST(JsonPins, EmptyAndRandomFaultPlans) {
  expect_pinned(sim::fault_plan_to_json(sim::FaultPlan{}),
                0x19a214b79d926bc8ull, 121);
  sim::RandomFaultOptions options;
  options.num_gpus = 4;
  options.num_nodes = 2;
  options.horizon_us = 3000.0;
  options.gpu_memory_bytes = 1000;
  options.allow_link_faults = true;
  expect_pinned(
      sim::fault_plan_to_json(sim::make_random_fault_plan(5, options)),
                0x43feac684044ade4ull, 494);
}

// ---- Chrome traces ----------------------------------------------------------

std::string chrome_trace_of(const core::TaskGraph& graph,
                            const core::Platform& platform,
                            core::Scheduler& scheduler) {
  sim::RuntimeEngine engine(graph, platform, scheduler);
  sim::Trace trace;
  engine.add_inspector(&trace);
  (void)engine.run();
  const std::string path = testing::TempDir() + "/memsched_json_pin_trace.json";
  EXPECT_TRUE(analysis::export_chrome_trace(graph, platform, trace, path));
  std::string text = read_file(path);
  std::remove(path.c_str());
  return text;
}

TEST(JsonPins, ChromeTraceOfASmallDartsRun) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10});
  core::DartsScheduler darts;
  expect_pinned(chrome_trace_of(graph, unit_platform(2, 100), darts),
                0xbc87fa2c328110b0ull, 2425);
}

TEST(JsonPins, ChromeTraceWithPeerLoads) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 6, .data_bytes = 14 * core::kMB});
  core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  platform.nvlink_enabled = true;
  sched::DmdaScheduler dmdar;
  const std::string text = chrome_trace_of(graph, platform, dmdar);
  EXPECT_NE(text.find("peer-load"), std::string::npos);
  expect_pinned(text, 0xfdfa77d34074b166ull, 4951);
}

TEST(JsonPins, ChromeTraceWithWriteBacks) {
  const core::TaskGraph graph = work::make_matmul_2d(
      {.n = 5, .data_bytes = 14 * core::kMB, .output_bytes = 3'686'400});
  sched::EagerScheduler eager;
  const std::string text = chrome_trace_of(
      graph, core::make_v100_platform(2, 120 * core::kMB), eager);
  EXPECT_NE(text.find("writeback"), std::string::npos);
  expect_pinned(text, 0xb0dda51f7dd67be3ull, 6375);
}

TEST(JsonPins, ChromeTraceOfALabelledCholesky) {
  const core::TaskGraph graph = work::make_cholesky_tasks({.n = 6});
  core::DartsScheduler darts{core::DartsOptions{.use_luf = true}};
  const std::string text = chrome_trace_of(
      graph, core::make_v100_platform(2, 150 * core::kMB), darts);
  EXPECT_NE(text.find("gemm_"), std::string::npos);
  expect_pinned(text, 0x3117582b50e60687ull, 7605);
}

// ---- Run reports ------------------------------------------------------------

TEST(JsonPins, RunReportBatchFileWithAQuotedContext) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 5, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  std::vector<sim::RunReport> reports;
  sched::EagerScheduler eager;
  sched::DmdaScheduler dmdar;
  for (core::Scheduler* scheduler :
       std::initializer_list<core::Scheduler*>{&eager, &dmdar}) {
    sim::RuntimeEngine engine(graph, platform, *scheduler);
    sim::RunReportCollector collector({.context = "run \"a\" \\ b"});
    engine.add_inspector(&collector);
    (void)engine.run();
    reports.push_back(collector.report());
  }
  const std::string path = testing::TempDir() + "/memsched_json_pin_batch.json";
  ASSERT_TRUE(sim::write_run_reports(reports, "batch \"ctx\"", path));
  const std::string text = read_file(path);
  std::remove(path.c_str());
  expect_pinned(text, 0xadd7640f2da6268cull, 5987);
}

TEST(JsonPins, RunReportOfALinkFaultRun) {
  // Two nodes, every task reads d1 (homed on node 1): node 0's fetch parks
  // at a partition, times out, suspects node 1 and lands after the heal.
  core::TaskGraphBuilder builder;
  builder.add_data(10);
  const core::DataId d1 = builder.add_data(10);
  for (int i = 0; i < 6; ++i) builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();
  core::Platform platform = unit_platform(2, 1000);
  platform.num_nodes = 2;

  sim::FaultPlan plan;
  plan.link_faults.push_back({.src = 0,
                              .dst = 1,
                              .start_us = 0.0,
                              .end_us = 3000.0,
                              .partition = true});
  sim::EngineConfig config;
  config.fetch_timeout_factor = 2.0;
  sched::EagerScheduler eager;
  sim::RuntimeEngine engine(graph, platform, eager, config);
  sim::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  sim::RunReportCollector collector({.context = "link-fault"});
  engine.add_inspector(&collector);
  (void)engine.run();
  ASSERT_TRUE(collector.report().network_faults.enabled);
  expect_pinned(sim::run_report_to_json(collector.report()),
                0xfa23e78daf043095ull, 3729);
}

// ---- User text: escaping and whole labels ---------------------------------

TEST(JsonEscaping, ControlCharactersInAReportContextAreEscaped) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = 2});
  sched::EagerScheduler eager;
  sim::RuntimeEngine engine(graph, core::make_v100_platform(1, 100 * core::kMB),
                            eager);
  const std::string context = "ctx\nline\ttab\r\b\f\x01\x1f\"q\"\\";
  sim::RunReportCollector collector({.context = context});
  engine.add_inspector(&collector);
  (void)engine.run();

  const std::string json = sim::run_report_to_json(collector.report());
  const std::string escaped =
      R"("context":"ctx\nline\ttab\r\b\f\u0001\u001f\"q\"\\")";
  EXPECT_NE(json.find(escaped), std::string::npos) << json.substr(0, 200);
  // Every escape, \u00XX included, reads back as the original byte.
  const auto parsed = util::json::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("context")->as_string(),
            "ctx\nline\ttab\r\b\f\x01\x1f\"q\"\\");

  const std::string path = testing::TempDir() + "/memsched_json_ctx.json";
  ASSERT_TRUE(sim::write_run_reports({collector.report()}, context, path));
  const auto file = util::json::parse(read_file(path));
  std::remove(path.c_str());
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->find("context")->as_string(),
            parsed->find("context")->as_string());
}

/// The Chrome trace of a one-GPU EAGER pass over `graph`.
std::string eager_chrome_trace(const core::TaskGraph& graph) {
  sched::EagerScheduler eager;
  return chrome_trace_of(graph, unit_platform(1, 1000), eager);
}

/// The "name" of every "ph":"X" slice, in file order.
std::vector<std::string> slice_names(const util::json::Value& trace) {
  std::vector<std::string> names;
  for (const util::json::Value& event : trace.find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() == "X") {
      names.push_back(event.find("name")->as_string());
    }
  }
  return names;
}

TEST(JsonEscaping, ControlCharactersInATaskLabelAreEscaped) {
  core::TaskGraphBuilder builder;
  const core::DataId d0 = builder.add_data(10);
  builder.add_task(1.0, {d0}, "tab\there");
  builder.add_task(1.0, {d0}, "new\nline");
  const std::string text = eager_chrome_trace(builder.build());
  EXPECT_NE(text.find(R"("name":"tab\there")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("name":"new\nline")"), std::string::npos) << text;
  const auto trace = util::json::parse(text);
  ASSERT_TRUE(trace.has_value()) << "chrome trace is not valid JSON";
  EXPECT_EQ(slice_names(*trace),
            (std::vector<std::string>{"tab\there", "new\nline"}));
}

TEST(JsonEscaping, LongTaskLabelsComeBackWhole) {
  core::TaskGraphBuilder builder;
  const core::DataId d0 = builder.add_data(10);
  std::string label;
  for (int i = 0; label.size() < 400; ++i) label += "gemm_" + std::to_string(i);
  builder.add_task(1.0, {d0}, label);
  builder.add_task(1.0, {d0}, "short");
  builder.add_task(1.0, {d0});
  const auto trace = util::json::parse(eager_chrome_trace(builder.build()));
  ASSERT_TRUE(trace.has_value()) << "chrome trace is not valid JSON";
  EXPECT_EQ(slice_names(*trace),
            (std::vector<std::string>{label, "short", "task 2"}));
}

// ---- Writer ----------------------------------------------------------------

TEST(JsonWriter, PlacesCommasInNestedContainers) {
  std::string out;
  util::json::Writer json(out);
  json.begin_object()
      .field("a", 1)
      .key("b")
      .begin_array()
      .begin_object()
      .end_object()
      .begin_array()
      .end_array()
      .value(true)
      .value("x")
      .end_array()
      .key("c")
      .begin_object()
      .field("d", false)
      .end_object()
      .end_object();
  EXPECT_EQ(out, R"({"a":1,"b":[{},[],true,"x"],"c":{"d":false}})");
  EXPECT_TRUE(util::json::parse(out).has_value());
}

TEST(JsonWriter, LinesArraysPutEachElementOnItsOwnLine) {
  const auto lines = [](int elements) {
    std::string out;
    util::json::Writer json(out);
    json.begin_object().key("runs").begin_array(util::json::Writer::kLines);
    for (int i = 0; i < elements; ++i) {
      json.begin_object().field("i", i).end_object();
    }
    json.end_array().end_object();
    return out;
  };
  EXPECT_EQ(lines(0), "{\"runs\":[\n\n]}");
  EXPECT_EQ(lines(1), "{\"runs\":[\n{\"i\":0}\n]}");
  EXPECT_EQ(lines(2), "{\"runs\":[\n{\"i\":0},\n{\"i\":1}\n]}");
}

TEST(JsonWriter, IntegersCoverTheirWholeRange) {
  std::string out;
  util::json::Writer json(out);
  json.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::uint8_t{7})
      .value(-3)
      .end_array();
  EXPECT_EQ(out, "[18446744073709551615,-9223372036854775808,7,-3]");
}

TEST(JsonWriter, DoublesKeepEachDocumentsFormat) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto write = [&](util::json::Doubles doubles) {
    std::string out;
    util::json::Writer json(out, doubles);
    json.begin_array().value(0.1).value(1.0 / 3.0).value(2.5e-7).value(inf);
    json.value(-inf).value(nan).end_array();
    return out;
  };
  EXPECT_EQ(write(util::json::Doubles::kShort),
            "[0.1,0.3333333333,2.5e-07,null,null,null]");
  EXPECT_EQ(write(util::json::Doubles::kExact),
            "[0.10000000000000001,0.33333333333333331,2.4999999999999999e-07,"
            "1e308,1e308,null]");
  EXPECT_EQ(write(util::json::Doubles::kFixed3),
            "[0.100,0.333,0.000,null,null,null]");

  // The widest value of the widest format comes out whole.
  std::string out;
  util::json::Writer(out, util::json::Doubles::kFixed3)
      .value(-std::numeric_limits<double>::max());
  EXPECT_EQ(out.size(), 314u);
  EXPECT_EQ(out.substr(out.size() - 4), ".000");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  std::string text;
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\/\x7f\xc3\xa9";
  std::string out;
  util::json::Writer(out).value(text);
  EXPECT_EQ(out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\/\x7f\xc3\xa9\"");
  const auto parsed = util::json::parse(out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), text);
}

// ---- Parser strictness -----------------------------------------------------

TEST(JsonParser, RejectsRawControlCharactersInStrings) {
  std::size_t offset = 0;
  EXPECT_FALSE(util::json::parse("\"a\tb\"", &offset).has_value());
  EXPECT_EQ(offset, 2u);
  EXPECT_FALSE(util::json::parse("[\"a\nb\"]").has_value());
  EXPECT_FALSE(util::json::parse(std::string("\"a\0b\"", 5)).has_value());
  EXPECT_FALSE(util::json::parse("{\"k\x1f\":1}").has_value());
  // The escaped forms, DEL and bytes >= 0x80 are fine.
  const auto ok = util::json::parse("\"a\\tb\x7f\xc3\xa9\"");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->as_string(), "a\tb\x7f\xc3\xa9");
}

TEST(JsonParser, DecodesUnicodeEscapesToUtf8) {
  const auto parsed = util::json::parse(
      "\"\\u0041\\u00e9\\u00E9\\u20ac\\ud83d\\ude00\\u0000z\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(),
            std::string("A\xc3\xa9\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\0z", 14));
}

TEST(JsonParser, RejectsMalformedUnicodeEscapes) {
  std::size_t offset = 0;
  EXPECT_FALSE(util::json::parse("\"\\u12G4\"", &offset).has_value());
  EXPECT_EQ(offset, 5u);  // the 'G'
  EXPECT_FALSE(util::json::parse("\"\\u12\"").has_value());
  EXPECT_FALSE(util::json::parse("\"\\u12").has_value());
  // Lone or mismatched surrogates.
  EXPECT_FALSE(util::json::parse("\"\\ud83d\"").has_value());
  EXPECT_FALSE(util::json::parse("\"\\ud83dx\"").has_value());
  EXPECT_FALSE(util::json::parse("\"\\ud83d\\u0041\"").has_value());
  EXPECT_FALSE(util::json::parse("\"\\ude00\"").has_value());
}

TEST(JsonParser, FaultPlanWithARawTabInAStringNamesTheOffset) {
  const std::string text =
      "{\"schema_version\":1,\"transfer_faults\":[{\"start_us\":0,"
      "\"scope\":\"host\t_bus\",\"probability\":0.5}]}";
  std::string error;
  EXPECT_FALSE(sim::parse_fault_plan(text, &error).has_value());
  const std::size_t tab = text.find('\t');
  EXPECT_NE(error.find("(byte " + std::to_string(tab) + ")"), std::string::npos)
      << error;
  EXPECT_NE(error.find("line 1 column " + std::to_string(tab + 1)),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace mg
