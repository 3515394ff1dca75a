#include "flow/push_relabel.h"

#include <algorithm>

#include "util/logging.h"

namespace ddsgraph {

PushRelabel::PushRelabel(FlowNetwork* network) : net_(network) {
  CHECK(net_ != nullptr);
}

void PushRelabel::InitializeHeights(uint32_t source, uint32_t sink) {
  const uint32_t n = net_->NumNodes();
  height_.assign(n, n);  // unreachable-from-sink nodes sit at height n
  height_.at(sink) = 0;
  bfs_queue_.clear();
  bfs_queue_.push_back(sink);
  for (size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    const uint32_t v = bfs_queue_[qi];
    const uint32_t end = net_->EndOut(v);
    for (uint32_t k = net_->FirstOut(v); k < end; ++k) {
      const uint32_t e = net_->OutArc(k);
      ++arcs_scanned_;
      // Arc e is v->w; flow towards the sink would use w->v, i.e. the
      // reverse arc e^1. It is usable iff its residual is positive.
      const uint32_t w = net_->To(e);
      if (height_[w] == n && net_->Residual(e ^ 1) > kFlowEps && w != source) {
        height_[w] = height_[v] + 1;
        bfs_queue_.push_back(w);
      }
    }
  }
  height_[source] = n;
  height_count_.assign(2 * n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++height_count_[height_[v]];
}

// Periodic exact-height rebuild: reverse BFS from the sink over residual
// arcs recomputes every reachable node's true distance-to-sink. Heights
// only ever move up (max with the old label), nodes cut off from the sink
// are lifted past n, and the gap counters / current arcs are rebuilt to
// match — so validity (h[v] <= h[w] + 1 on residual arcs) and the
// monotone-heights invariant both survive the rebuild.
void PushRelabel::GlobalRelabel(uint32_t source, uint32_t sink) {
  ++num_global_relabels_;
  work_since_global_ = 0;
  const uint32_t n = net_->NumNodes();
  const uint32_t unreached = 2 * n;  // BFS sentinel, never a real distance
  std::vector<uint32_t> exact(n, unreached);
  exact[sink] = 0;
  bfs_queue_.clear();
  bfs_queue_.push_back(sink);
  for (size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    const uint32_t v = bfs_queue_[qi];
    const uint32_t end = net_->EndOut(v);
    for (uint32_t k = net_->FirstOut(v); k < end; ++k) {
      const uint32_t e = net_->OutArc(k);
      ++arcs_scanned_;
      const uint32_t w = net_->To(e);
      if (exact[w] == unreached && net_->Residual(e ^ 1) > kFlowEps &&
          w != source) {
        exact[w] = exact[v] + 1;
        bfs_queue_.push_back(w);
      }
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (v == source) continue;  // the source stays pinned at height n
    const uint32_t target = exact[v] == unreached ? n + 1 : exact[v];
    height_[v] = std::max(height_[v], target);
    current_[v] = net_->FirstOut(v);
  }
  height_count_.assign(2 * n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++height_count_[height_[v]];
}

void PushRelabel::Enqueue(uint32_t v, uint32_t source, uint32_t sink) {
  if (v == source || v == sink) return;
  if (in_fifo_[v] || excess_[v] <= kFlowEps) return;
  in_fifo_[v] = true;
  fifo_.push_back(v);
}

void PushRelabel::Relabel(uint32_t v) {
  ++num_relabels_;
  const uint32_t n = net_->NumNodes();
  const uint32_t old_height = height_[v];
  uint32_t best = 2 * n;
  const uint32_t begin = net_->FirstOut(v);
  const uint32_t end = net_->EndOut(v);
  for (uint32_t k = begin; k < end; ++k) {
    const uint32_t e = net_->OutArc(k);
    if (net_->Residual(e) > kFlowEps) {
      best = std::min(best, height_[net_->To(e)] + 1);
    }
  }
  arcs_scanned_ += end - begin;
  work_since_global_ += end - begin + 12;  // hi_pr-style relabel surcharge
  --height_count_[old_height];
  height_[v] = best;
  ++height_count_[best];
  current_[v] = begin;
  if (height_count_[old_height] == 0 && old_height < n) {
    ApplyGapHeuristic(old_height);
  }
}

void PushRelabel::ApplyGapHeuristic(uint32_t empty_height) {
  // No node can route flow to the sink through an empty height level; lift
  // everything stranded above the gap straight past the source height.
  const uint32_t n = net_->NumNodes();
  for (uint32_t v = 0; v < n; ++v) {
    if (height_[v] > empty_height && height_[v] < n) {
      --height_count_[height_[v]];
      height_[v] = n + 1;
      ++height_count_[height_[v]];
    }
  }
}

void PushRelabel::Discharge(uint32_t v, uint32_t source, uint32_t sink) {
  const uint32_t end = net_->EndOut(v);
  while (excess_[v] > kFlowEps) {
    if (current_[v] == end) {
      Relabel(v);
      if (height_[v] >= 2 * net_->NumNodes()) break;  // cannot push further
      continue;
    }
    ++arcs_scanned_;
    ++work_since_global_;
    // Heads first (contiguous via the OutArcTo mirror); the scattered
    // capacity load is paid only for admissible-height arcs.
    const uint32_t w = net_->OutArcTo(current_[v]);
    if (height_[v] == height_[w] + 1) {
      const uint32_t e = net_->OutArc(current_[v]);
      const FlowCap residual = net_->Residual(e);
      if (residual > kFlowEps) {
        const FlowCap amount = std::min(excess_[v], residual);
        net_->Push(e, amount);
        excess_[v] -= amount;
        excess_[w] += amount;
        Enqueue(w, source, sink);
        continue;
      }
    }
    ++current_[v];
  }
}

FlowCap PushRelabel::Solve(uint32_t source, uint32_t sink) {
  CHECK_NE(source, sink);
  net_->Finalize();
  const uint32_t n = net_->NumNodes();
  num_relabels_ = 0;
  num_global_relabels_ = 0;
  arcs_scanned_ = 0;
  work_since_global_ = 0;
  // Re-run the exact-height BFS after roughly one full network's worth of
  // discharge/relabel work (the classic alpha*n + m schedule).
  global_relabel_work_ =
      6 * static_cast<int64_t>(n) + static_cast<int64_t>(net_->NumArcs());
  excess_.assign(n, 0);
  current_.resize(n);
  for (uint32_t v = 0; v < n; ++v) current_[v] = net_->FirstOut(v);
  InitializeHeights(source, sink);

  fifo_.clear();
  fifo_head_ = 0;
  in_fifo_.assign(n, false);

  // Saturate all source arcs.
  const uint32_t source_end = net_->EndOut(source);
  for (uint32_t k = net_->FirstOut(source); k < source_end; ++k) {
    const uint32_t e = net_->OutArc(k);
    const FlowCap cap = net_->Residual(e);
    if (cap > kFlowEps) {
      const uint32_t w = net_->To(e);
      net_->Push(e, cap);
      excess_[w] += cap;
      Enqueue(w, source, sink);
    }
  }

  while (fifo_head_ < fifo_.size()) {
    const uint32_t v = fifo_[fifo_head_++];
    in_fifo_[v] = false;
    Discharge(v, source, sink);
    if (work_since_global_ >= global_relabel_work_) {
      GlobalRelabel(source, sink);
    }
    // Periodically compact the FIFO storage.
    if (fifo_head_ > 1024 && fifo_head_ * 2 > fifo_.size()) {
      fifo_.erase(fifo_.begin(), fifo_.begin() + fifo_head_);
      fifo_head_ = 0;
    }
  }
  return excess_[sink];
}

}  // namespace ddsgraph
