// Multilevel K-way hypergraph partitioner — the from-scratch replacement for
// the closed-source hMETIS binary used by the paper.
//
// Structure (classic multilevel recursive bisection):
//   * coarsening by heavy-connectivity matching (score between two vertices
//     = sum over shared nets of w_e / (|e|-1));
//   * initial bisection at the coarsest level by randomized greedy growth,
//     with `num_restarts` restarts (the paper sets hMETIS Nruns = 20);
//   * Fiduccia–Mattheyses boundary refinement at every level, with
//     rollback to the best feasible prefix; vertex gains are maintained
//     incrementally (updated by delta on critical nets, those whose side
//     counts cross 0/1/2) instead of being recomputed after every move;
//   * K-way by recursive bisection with proportional target weights, so any
//     K (not only powers of two) is supported;
//   * `cycles` independent multilevel runs keep the best result (the paper
//     sets hMETIS V-cycles = 2).
//
// The balance constraint mirrors hMETIS's UBfactor: part weight must stay
// within (1 + imbalance) of its proportional target (the paper uses
// UBfactor 1, i.e. near-perfect balance).
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace mg::hyper {

struct PartitionerConfig {
  std::uint32_t num_parts = 2;
  double imbalance = 0.01;        ///< UBfactor 1 -> ~1%
  std::uint32_t num_restarts = 20;  ///< initial-partition restarts (Nruns)
  std::uint32_t cycles = 2;         ///< independent multilevel runs (V-cycles)
  std::uint32_t coarsen_limit = 160;  ///< stop coarsening below this size
  std::uint32_t fm_max_passes = 6;
  /// Direct K-way greedy refinement passes applied after recursive
  /// bisection (moves boundary vertices across *any* part pair, which
  /// recursive bisection cannot).
  std::uint32_t kway_refine_passes = 4;
  std::uint64_t seed = 1;

  /// Optional per-part target weight shares (heterogeneous GPUs): when
  /// non-empty it must have num_parts entries; part p targets
  /// total_weight * share[p] / sum(shares). Empty = uniform.
  std::vector<double> target_share;
};

/// Returns part[v] in [0, num_parts) for every vertex.
std::vector<std::uint32_t> partition_hypergraph(const Hypergraph& hypergraph,
                                                const PartitionerConfig& config);

/// Greedy direct K-way refinement of an existing assignment: repeatedly
/// moves vertices to the part maximizing the connectivity-1 gain, subject
/// to the balance bound (per-part targets when `target_share` is given).
/// Exposed for testing and for refining externally produced partitions.
void kway_refine(const Hypergraph& hypergraph,
                 std::vector<std::uint32_t>& part, std::uint32_t num_parts,
                 double imbalance, std::uint32_t max_passes,
                 std::span<const double> target_share = {});

}  // namespace mg::hyper
