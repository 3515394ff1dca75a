#include "flow/dinic.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace ddsgraph {

Dinic::Dinic(FlowNetwork* network) : net_(network) {
  CHECK(net_ != nullptr);
}

void Dinic::EnsureSized() {
  const uint32_t n = net_->NumNodes();
  if (level_.size() != n ||
      epoch_ >= std::numeric_limits<uint32_t>::max() - 1) {
    level_.assign(n, -1);
    level_stamp_.assign(n, 0);
    iter_.assign(n, 0);
    epoch_ = 0;
  }
}

bool Dinic::BuildLevels(uint32_t source, uint32_t sink) {
  ++epoch_;
  queue_.clear();
  queue_.push_back(source);
  SetLevel(source, 0);
  int32_t sink_level = -1;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const uint32_t v = queue_[qi];
    // Nodes at or past the sink's level cannot lie on a shortest
    // augmenting path; stop expanding once the sink has been levelled.
    if (sink_level >= 0 && Level(v) >= sink_level) break;
    const int32_t next_level = Level(v) + 1;
    const uint32_t begin = net_->FirstOut(v);
    const uint32_t end = net_->EndOut(v);
    arcs_scanned_ += end - begin;
    for (uint32_t k = begin; k < end; ++k) {
      // Heads first (contiguous via the OutArcTo mirror); the scattered
      // capacity load is paid only for arcs into unlevelled nodes.
      const uint32_t w = net_->OutArcTo(k);
      if (Level(w) < 0 && net_->Residual(net_->OutArc(k)) > kFlowEps) {
        SetLevel(w, next_level);
        if (w == sink) sink_level = next_level;
        queue_.push_back(w);
      }
    }
  }
  return sink_level >= 0;
}

// Saturates the level graph: repeatedly walks shortest augmenting paths
// with an explicit arc stack (parametric networks can have paths as long
// as the node count, which would overflow the call stack if this
// recursed). `path_cap_` carries the prefix-minimum residual along the
// stack, so reaching the sink yields the bottleneck without re-scanning
// the path; after a push the walk retreats only to the first saturated
// arc and continues from there.
FlowCap Dinic::BlockingFlow(uint32_t source, uint32_t sink) {
  FlowCap total = 0;
  path_.clear();
  path_cap_.clear();
  uint32_t v = source;
  while (true) {
    if (v == sink) {
      const FlowCap pushed = path_cap_.back();
      for (uint32_t arc : path_) net_->Push(arc, pushed);
      total += pushed;
      ++num_augmentations_;
      // Retreat to the first saturated arc; the retained prefix stays on
      // the stack with its prefix-minimums reduced by what was pushed.
      size_t keep = 0;
      while (keep < path_.size() &&
             net_->Residual(path_[keep]) > kFlowEps) {
        ++keep;
      }
      path_.resize(keep);
      path_cap_.resize(keep);
      for (size_t i = 0; i < keep; ++i) path_cap_[i] -= pushed;
      v = path_.empty() ? source : net_->To(path_.back());
      continue;
    }
    uint32_t& slot = iter_[v];
    const uint32_t end = net_->EndOut(v);
    const int32_t next_level = Level(v) + 1;
    bool advanced = false;
    while (slot < end) {
      ++arcs_scanned_;
      const uint32_t w = net_->OutArcTo(slot);
      if (Level(w) == next_level) {
        const uint32_t e = net_->OutArc(slot);
        const FlowCap residual = net_->Residual(e);
        if (residual > kFlowEps) {
          path_cap_.push_back(path_cap_.empty()
                                  ? residual
                                  : std::min(path_cap_.back(), residual));
          path_.push_back(e);
          v = w;
          advanced = true;
          break;
        }
      }
      ++slot;
    }
    if (advanced) continue;
    SetLevel(v, -1);  // dead end; prune for the rest of this phase
    if (path_.empty()) return total;
    path_.pop_back();
    path_cap_.pop_back();
    v = path_.empty() ? source : net_->To(path_.back());
    ++iter_[v];  // skip the arc into the dead end
  }
}

FlowCap Dinic::AugmentToMax(uint32_t source, uint32_t sink) {
  CHECK_NE(source, sink);
  net_->Finalize();
  EnsureSized();
  FlowCap total = 0;
  while (BuildLevels(source, sink)) {
    ++num_phases_;
    total += BlockingFlow(source, sink);
  }
  return total;
}

FlowCap Dinic::Solve(uint32_t source, uint32_t sink) {
  num_phases_ = 0;
  num_augmentations_ = 0;
  arcs_scanned_ = 0;
  return AugmentToMax(source, sink);
}

FlowCap Dinic::Resolve(uint32_t source, uint32_t sink) {
  return AugmentToMax(source, sink);
}

}  // namespace ddsgraph
