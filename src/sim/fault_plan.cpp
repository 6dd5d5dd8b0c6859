#include "sim/fault_plan.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace mg::sim {

namespace {

const char* scope_name(FaultPlan::TransferScope scope) {
  switch (scope) {
    case FaultPlan::TransferScope::kAll: return "all";
    case FaultPlan::TransferScope::kHostBus: return "host_bus";
    case FaultPlan::TransferScope::kNvlink: return "nvlink";
  }
  return "all";
}

bool scope_from_name(const std::string& name,
                     FaultPlan::TransferScope* scope) {
  if (name == "all") {
    *scope = FaultPlan::TransferScope::kAll;
  } else if (name == "host_bus") {
    *scope = FaultPlan::TransferScope::kHostBus;
  } else if (name == "nvlink") {
    *scope = FaultPlan::TransferScope::kNvlink;
  } else {
    return false;
  }
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Fetches `key` as a finite number; missing keys keep `*out` untouched and
/// succeed, wrong types fail.
bool read_number(const util::json::Value& object, const char* key, double* out,
                 std::string* error) {
  const util::json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_number()) {
    return fail(error, std::string("field '") + key + "' must be a number");
  }
  *out = value->as_number();
  return true;
}

bool read_u64(const util::json::Value& object, const char* key,
              std::uint64_t* out, std::string* error) {
  double number = 0.0;
  if (!read_number(object, key, &number, error)) return false;
  const util::json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (number < 0.0) {
    return fail(error, std::string("field '") + key + "' must be >= 0");
  }
  *out = static_cast<std::uint64_t>(number);
  return true;
}

/// The entries of the optional array section `key`: empty when absent,
/// nullptr (with a diagnostic) when it is not an array of objects.
const util::json::Array* read_section(const util::json::Value& root,
                                      const std::string& key,
                                      std::string* error) {
  static const util::json::Array kNone;
  const util::json::Value* section = root.find(key);
  if (section == nullptr) return &kNone;
  if (!section->is_array()) {
    fail(error, key + " must be an array");
    return nullptr;
  }
  for (const util::json::Value& entry : section->as_array()) {
    if (!entry.is_object()) {
      fail(error, key + " entries must be objects");
      return nullptr;
    }
  }
  return &section->as_array();
}

}  // namespace

std::string FaultPlan::validate(std::uint32_t num_gpus,
                                std::uint32_t num_nodes) const {
  char buffer[160];
  for (const GpuLoss& loss : gpu_losses) {
    if (loss.gpu >= num_gpus) {
      std::snprintf(buffer, sizeof buffer,
                    "gpu_losses: gpu %u out of range (platform has %u GPUs)",
                    loss.gpu, num_gpus);
      return buffer;
    }
    if (!std::isfinite(loss.time_us) || loss.time_us < 0.0) {
      return "gpu_losses: time_us must be finite and >= 0";
    }
  }
  // Each GPU can die at most once; duplicate losses of one GPU are a plan bug.
  for (std::size_t i = 0; i < gpu_losses.size(); ++i) {
    for (std::size_t j = i + 1; j < gpu_losses.size(); ++j) {
      if (gpu_losses[i].gpu == gpu_losses[j].gpu) {
        std::snprintf(buffer, sizeof buffer,
                      "gpu_losses: gpu %u listed twice", gpu_losses[i].gpu);
        return buffer;
      }
    }
  }
  for (const NodeLoss& loss : node_losses) {
    if (num_nodes < 2) {
      return "node_losses: need a multi-node platform (num_nodes >= 2)";
    }
    if (loss.node >= num_nodes) {
      std::snprintf(buffer, sizeof buffer,
                    "node_losses: node %u out of range (platform has %u "
                    "nodes)",
                    loss.node, num_nodes);
      return buffer;
    }
    if (!std::isfinite(loss.time_us) || loss.time_us < 0.0) {
      return "node_losses: time_us must be finite and >= 0";
    }
  }
  for (std::size_t i = 0; i < node_losses.size(); ++i) {
    for (std::size_t j = i + 1; j < node_losses.size(); ++j) {
      if (node_losses[i].node == node_losses[j].node) {
        std::snprintf(buffer, sizeof buffer,
                      "node_losses: node %u listed twice",
                      node_losses[i].node);
        return buffer;
      }
    }
  }
  // Combined survivor check: a node loss kills its whole contiguous GPU
  // block; together with the individual losses at least one GPU must live.
  {
    std::vector<std::uint8_t> killed(num_gpus, 0);
    for (const GpuLoss& loss : gpu_losses) killed[loss.gpu] = 1;
    const std::uint32_t per_node = num_nodes > 0 ? num_gpus / num_nodes : 0;
    for (const NodeLoss& loss : node_losses) {
      for (std::uint32_t g = loss.node * per_node;
           g < (loss.node + 1) * per_node && g < num_gpus; ++g) {
        killed[g] = 1;
      }
    }
    std::uint32_t dead = 0;
    for (std::uint8_t flag : killed) dead += flag;
    if (dead >= num_gpus) {
      return "losses: the plan kills every GPU; at least one must survive";
    }
  }
  for (const TransferFault& fault : transfer_faults) {
    if (std::isnan(fault.start_us) || fault.start_us < 0.0 ||
        std::isnan(fault.end_us) || fault.end_us < fault.start_us) {
      return "transfer_faults: need 0 <= start_us <= end_us";
    }
    if (!(fault.probability >= 0.0 && fault.probability <= 1.0)) {
      return "transfer_faults: probability must be in [0, 1]";
    }
  }
  for (const LinkFault& fault : link_faults) {
    if (num_nodes < 2) {
      return "link_faults: need a multi-node platform (num_nodes >= 2)";
    }
    if (fault.src >= num_nodes || fault.dst >= num_nodes) {
      std::snprintf(buffer, sizeof buffer,
                    "link_faults: node pair %u-%u out of range (platform has "
                    "%u nodes)",
                    fault.src, fault.dst, num_nodes);
      return buffer;
    }
    if (fault.src == fault.dst) {
      std::snprintf(buffer, sizeof buffer,
                    "link_faults: src and dst must differ (both are %u)",
                    fault.src);
      return buffer;
    }
    if (std::isnan(fault.start_us) || fault.start_us < 0.0 ||
        std::isnan(fault.end_us) || fault.end_us < fault.start_us) {
      return "link_faults: need 0 <= start_us <= end_us";
    }
    if (!(fault.bandwidth_factor >= 1.0) ||
        !std::isfinite(fault.bandwidth_factor)) {
      return "link_faults: bandwidth_factor must be finite and >= 1";
    }
    if (!(fault.straggler_us >= 0.0) || !std::isfinite(fault.straggler_us)) {
      return "link_faults: straggler_us must be finite and >= 0";
    }
  }
  // At most one fault window per (unordered) node pair at any instant: the
  // engine keys the live link state by pair, so overlapping windows would
  // silently shadow each other.
  for (std::size_t i = 0; i < link_faults.size(); ++i) {
    for (std::size_t j = i + 1; j < link_faults.size(); ++j) {
      const LinkFault& a = link_faults[i];
      const LinkFault& b = link_faults[j];
      const bool same_pair = (a.src == b.src && a.dst == b.dst) ||
                             (a.src == b.dst && a.dst == b.src);
      if (same_pair && a.start_us < b.end_us && b.start_us < a.end_us) {
        std::snprintf(buffer, sizeof buffer,
                      "link_faults: overlapping windows for node pair %u-%u",
                      a.src, a.dst);
        return buffer;
      }
    }
  }
  for (const CapacityShock& shock : capacity_shocks) {
    if (shock.gpu >= num_gpus) {
      std::snprintf(buffer, sizeof buffer,
                    "capacity_shocks: gpu %u out of range (platform has %u "
                    "GPUs)",
                    shock.gpu, num_gpus);
      return buffer;
    }
    if (!std::isfinite(shock.time_us) || shock.time_us < 0.0) {
      return "capacity_shocks: time_us must be finite and >= 0";
    }
    if (shock.capacity_bytes == 0) {
      return "capacity_shocks: capacity_bytes must be > 0";
    }
  }
  return {};
}

std::optional<FaultPlan> parse_fault_plan(std::string_view json_text,
                                          std::string* error) {
  std::size_t error_offset = 0;
  const std::optional<util::json::Value> root =
      util::json::parse(json_text, &error_offset);
  if (!root.has_value()) {
    // Hand-written plans deserve a position: report where the parser
    // stopped as line/column (1-based) plus the raw byte offset.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < error_offset && i < json_text.size(); ++i) {
      if (json_text[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    char buffer[96];
    std::snprintf(buffer, sizeof buffer,
                  "JSON syntax error at line %zu column %zu (byte %zu)", line,
                  column, error_offset);
    fail(error, buffer);
    return std::nullopt;
  }
  if (!root->is_object()) {
    fail(error, "fault plan is not a JSON object");
    return std::nullopt;
  }

  FaultPlan plan;
  if (const util::json::Value* version = root->find("schema_version")) {
    const int parsed =
        version->is_number() ? static_cast<int>(version->as_number()) : -1;
    if (parsed < FaultPlan::kMinSchemaVersion ||
        parsed > FaultPlan::kSchemaVersion) {
      fail(error, "unsupported fault plan schema_version");
      return std::nullopt;
    }
  } else {
    fail(error, "fault plan is missing schema_version");
    return std::nullopt;
  }
  if (!read_u64(*root, "seed", &plan.seed, error)) return std::nullopt;

  const util::json::Array* gpu_losses =
      read_section(*root, "gpu_losses", error);
  if (gpu_losses == nullptr) return std::nullopt;
  for (const util::json::Value& entry : *gpu_losses) {
    FaultPlan::GpuLoss loss;
    std::uint64_t gpu = 0;
    if (!read_number(entry, "time_us", &loss.time_us, error) ||
        !read_u64(entry, "gpu", &gpu, error)) {
      return std::nullopt;
    }
    loss.gpu = static_cast<core::GpuId>(gpu);
    plan.gpu_losses.push_back(loss);
  }

  const util::json::Array* node_losses =
      read_section(*root, "node_losses", error);
  if (node_losses == nullptr) return std::nullopt;
  for (const util::json::Value& entry : *node_losses) {
    FaultPlan::NodeLoss loss;
    std::uint64_t node = 0;
    if (!read_number(entry, "time_us", &loss.time_us, error) ||
        !read_u64(entry, "node", &node, error)) {
      return std::nullopt;
    }
    loss.node = static_cast<core::NodeId>(node);
    plan.node_losses.push_back(loss);
  }

  const util::json::Array* transfer_faults =
      read_section(*root, "transfer_faults", error);
  if (transfer_faults == nullptr) return std::nullopt;
  for (const util::json::Value& entry : *transfer_faults) {
    FaultPlan::TransferFault fault;
    std::uint64_t max_failures = fault.max_failures_per_transfer;
    if (!read_number(entry, "start_us", &fault.start_us, error) ||
        !read_number(entry, "end_us", &fault.end_us, error) ||
        !read_number(entry, "probability", &fault.probability, error) ||
        !read_u64(entry, "max_failures_per_transfer", &max_failures, error)) {
      return std::nullopt;
    }
    fault.max_failures_per_transfer = static_cast<std::uint32_t>(max_failures);
    if (const util::json::Value* scope = entry.find("scope")) {
      if (!scope->is_string() ||
          !scope_from_name(scope->as_string(), &fault.scope)) {
        fail(error, "transfer_faults: scope must be \"all\", \"host_bus\" or "
                    "\"nvlink\"");
        return std::nullopt;
      }
    }
    plan.transfer_faults.push_back(fault);
  }

  const util::json::Array* capacity_shocks =
      read_section(*root, "capacity_shocks", error);
  if (capacity_shocks == nullptr) return std::nullopt;
  for (const util::json::Value& entry : *capacity_shocks) {
    FaultPlan::CapacityShock shock;
    std::uint64_t gpu = 0;
    if (!read_number(entry, "time_us", &shock.time_us, error) ||
        !read_u64(entry, "gpu", &gpu, error) ||
        !read_u64(entry, "capacity_bytes", &shock.capacity_bytes, error)) {
      return std::nullopt;
    }
    shock.gpu = static_cast<core::GpuId>(gpu);
    plan.capacity_shocks.push_back(shock);
  }

  const util::json::Array* link_faults =
      read_section(*root, "link_faults", error);
  if (link_faults == nullptr) return std::nullopt;
  for (const util::json::Value& entry : *link_faults) {
    FaultPlan::LinkFault fault;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!read_u64(entry, "src", &src, error) ||
        !read_u64(entry, "dst", &dst, error) ||
        !read_number(entry, "start_us", &fault.start_us, error) ||
        !read_number(entry, "end_us", &fault.end_us, error) ||
        !read_number(entry, "bandwidth_factor", &fault.bandwidth_factor,
                     error) ||
        !read_number(entry, "straggler_us", &fault.straggler_us, error)) {
      return std::nullopt;
    }
    if (const util::json::Value* partition = entry.find("partition")) {
      if (!partition->is_bool()) {
        fail(error, "link_faults: partition must be a boolean");
        return std::nullopt;
      }
      fault.partition = partition->as_bool();
    }
    fault.src = static_cast<core::NodeId>(src);
    fault.dst = static_cast<core::NodeId>(dst);
    plan.link_faults.push_back(fault);
  }
  return plan;
}

std::optional<FaultPlan> load_fault_plan_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "cannot open fault plan file: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<FaultPlan> plan = parse_fault_plan(text.str(), error);
  if (!plan.has_value() && error != nullptr) {
    // Name the file: callers surface this to users who typed the plan path.
    *error = path + ": " + *error;
  }
  return plan;
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::string out;
  util::json::Writer json(out, util::json::Doubles::kExact);
  json.begin_object()
      .field("schema_version", FaultPlan::kSchemaVersion)
      .field("seed", plan.seed);
  json.key("gpu_losses").begin_array();
  for (const FaultPlan::GpuLoss& loss : plan.gpu_losses) {
    json.begin_object()
        .field("time_us", loss.time_us)
        .field("gpu", loss.gpu)
        .end_object();
  }
  json.end_array().key("node_losses").begin_array();
  for (const FaultPlan::NodeLoss& loss : plan.node_losses) {
    json.begin_object()
        .field("time_us", loss.time_us)
        .field("node", loss.node)
        .end_object();
  }
  json.end_array().key("transfer_faults").begin_array();
  for (const FaultPlan::TransferFault& fault : plan.transfer_faults) {
    json.begin_object().field("start_us", fault.start_us);
    if (std::isfinite(fault.end_us)) json.field("end_us", fault.end_us);
    json.field("scope", scope_name(fault.scope))
        .field("probability", fault.probability)
        .field("max_failures_per_transfer", fault.max_failures_per_transfer)
        .end_object();
  }
  json.end_array().key("capacity_shocks").begin_array();
  for (const FaultPlan::CapacityShock& shock : plan.capacity_shocks) {
    json.begin_object()
        .field("time_us", shock.time_us)
        .field("gpu", shock.gpu)
        .field("capacity_bytes", shock.capacity_bytes)
        .end_object();
  }
  json.end_array().key("link_faults").begin_array();
  for (const FaultPlan::LinkFault& fault : plan.link_faults) {
    json.begin_object()
        .field("src", fault.src)
        .field("dst", fault.dst)
        .field("start_us", fault.start_us);
    if (std::isfinite(fault.end_us)) json.field("end_us", fault.end_us);
    json.field("bandwidth_factor", fault.bandwidth_factor)
        .field("straggler_us", fault.straggler_us)
        .field("partition", fault.partition)
        .end_object();
  }
  json.end_array().end_object();
  return out;
}

FaultPlan make_random_fault_plan(std::uint64_t seed,
                                 const RandomFaultOptions& options) {
  util::Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;

  if (options.allow_gpu_loss && options.num_gpus >= 2) {
    // 1..num_gpus-1 losses, biased toward one: recovery with several
    // survivors is the common case worth stressing most often.
    std::uint32_t losses = 1;
    if (options.num_gpus > 2 && rng.chance(0.3)) {
      losses = 1 + static_cast<std::uint32_t>(
                       rng.below(options.num_gpus - 1));
    }
    std::vector<core::GpuId> gpus(options.num_gpus);
    for (core::GpuId g = 0; g < options.num_gpus; ++g) gpus[g] = g;
    rng.shuffle(gpus);
    for (std::uint32_t i = 0; i < losses; ++i) {
      FaultPlan::GpuLoss loss;
      loss.gpu = gpus[i];
      loss.time_us = rng.uniform() * options.horizon_us * 0.6;
      plan.gpu_losses.push_back(loss);
    }
  }

  if (options.allow_transfer_faults) {
    FaultPlan::TransferFault fault;
    fault.start_us = 0.0;
    fault.end_us = options.horizon_us;
    fault.probability = 0.05 + rng.uniform() * 0.25;
    fault.max_failures_per_transfer =
        1 + static_cast<std::uint32_t>(rng.below(4));
    const std::uint64_t scope_draw = rng.below(3);
    fault.scope = scope_draw == 0   ? FaultPlan::TransferScope::kAll
                  : scope_draw == 1 ? FaultPlan::TransferScope::kHostBus
                                    : FaultPlan::TransferScope::kNvlink;
    plan.transfer_faults.push_back(fault);
  }

  if (options.allow_capacity_shock && options.gpu_memory_bytes > 0) {
    FaultPlan::CapacityShock shock;
    shock.gpu = static_cast<core::GpuId>(rng.below(options.num_gpus));
    shock.time_us = rng.uniform() * options.horizon_us * 0.6;
    const double fraction = 0.3 + rng.uniform() * 0.5;
    shock.capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(options.gpu_memory_bytes) * fraction);
    if (shock.capacity_bytes == 0) shock.capacity_bytes = 1;
    plan.capacity_shocks.push_back(shock);
  }

  if (options.allow_link_faults && options.num_nodes >= 2) {
    FaultPlan::LinkFault fault;
    fault.src = static_cast<core::NodeId>(rng.below(options.num_nodes));
    fault.dst = static_cast<core::NodeId>(rng.below(options.num_nodes - 1));
    if (fault.dst >= fault.src) ++fault.dst;
    fault.start_us = rng.uniform() * options.horizon_us * 0.4;
    // The window always closes inside the horizon: random plans must
    // terminate without relying on detector escalation.
    fault.end_us = fault.start_us +
                   (0.1 + rng.uniform() * 0.4) * options.horizon_us;
    if (rng.chance(0.5)) {
      fault.partition = true;
    } else {
      fault.bandwidth_factor = 2.0 + rng.uniform() * 6.0;
      fault.straggler_us = rng.uniform() * options.horizon_us * 0.01;
    }
    plan.link_faults.push_back(fault);
  }
  return plan;
}

}  // namespace mg::sim
