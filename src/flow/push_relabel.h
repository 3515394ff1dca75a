#ifndef DDSGRAPH_FLOW_PUSH_RELABEL_H_
#define DDSGRAPH_FLOW_PUSH_RELABEL_H_

#include <cstdint>
#include <vector>

#include "flow/flow_network.h"

/// \file
/// FIFO push-relabel max-flow with the gap heuristic and periodic global
/// relabeling (exact reverse-BFS heights, re-run every O(n + m) units of
/// discharge/relabel work on top of the initial backward-BFS labelling).
///
/// This is the fresh-build engine of choice for the exact DDS probes
/// (`flow_engine = auto`, DESIGN.md §12): on a cold network it reaches the
/// max flow with far fewer arc scans than Dinic's phase-by-phase blocking
/// flows, while Dinic keeps the warm-started incremental re-solves. The
/// test suite also cross-checks the two engines against each other on
/// random networks.

namespace ddsgraph {

class PushRelabel {
 public:
  /// Wraps `network` (not owned); Solve mutates its residual capacities
  /// and finalizes the network's CSR layout on first use.
  explicit PushRelabel(FlowNetwork* network);

  /// Computes the maximum s-t flow value, assuming the wrapped network
  /// carries no flow yet. After Solve, the residual capacities encode a
  /// maximum preflow converted to a flow on the source side of the cut;
  /// min-cut extraction via residual reachability is valid.
  FlowCap Solve(uint32_t source, uint32_t sink);

  /// Relabel operations performed by the last Solve (statistics).
  int64_t num_relabels() const { return num_relabels_; }

  /// Global relabels (periodic exact-height rebuilds) by the last Solve.
  int64_t num_global_relabels() const { return num_global_relabels_; }

  /// Residual arcs examined (discharge + relabel + BFS) by the last Solve.
  int64_t arcs_scanned() const { return arcs_scanned_; }

 private:
  void InitializeHeights(uint32_t source, uint32_t sink);
  void GlobalRelabel(uint32_t source, uint32_t sink);
  void Discharge(uint32_t v, uint32_t source, uint32_t sink);
  void Relabel(uint32_t v);
  void ApplyGapHeuristic(uint32_t empty_height);
  void Enqueue(uint32_t v, uint32_t source, uint32_t sink);

  FlowNetwork* net_;
  std::vector<FlowCap> excess_;
  std::vector<uint32_t> height_;
  std::vector<uint32_t> height_count_;
  std::vector<uint32_t> current_;  ///< CSR adjacency slots, not arc ids
  std::vector<uint32_t> bfs_queue_;
  std::vector<uint32_t> fifo_;
  std::vector<bool> in_fifo_;
  size_t fifo_head_ = 0;
  int64_t num_relabels_ = 0;
  int64_t num_global_relabels_ = 0;
  int64_t arcs_scanned_ = 0;
  int64_t work_since_global_ = 0;  ///< discharge/relabel work accumulator
  int64_t global_relabel_work_ = 0;  ///< threshold; 0 disables
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_FLOW_PUSH_RELABEL_H_
