#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "util/random.h"
#include "util/stats.h"

namespace ddsgraph {
namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

int NumProcs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, int64_t request) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::SetEnd(int64_t index, double end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"start_us\": %.3f, \"end_us\": %.3f, ", s.start * 1e6,
                  s.end * 1e6);
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << buf
        << "\"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

namespace {

// The highest percentile (in percent, in steps of 0.1) that still has at
// least ten samples beyond it; 0 when the sample has fewer than 11.
double HighestResolvedPercentile(size_t count) {
  // count * (1000 - tenths) / 1000 >= 10 samples beyond, in integers.
  for (int64_t tenths = 999; tenths >= 0; --tenths) {
    if (static_cast<int64_t>(count) * (1000 - tenths) >= 10000) {
      return static_cast<double>(tenths) / 10.0;
    }
  }
  return 0;
}

}  // namespace

double Tail(const std::vector<double>& values) {
  const double resolved = HighestResolvedPercentile(values.size()) / 100;
  return Quantile(values, resolved > 0 ? std::min(0.99, resolved) : 0.99);
}

void MetricSet::Set(const std::string& name, double value) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second].second = value;
    return;
  }
  index_[name] = items_.size();
  items_.emplace_back(name, value);
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].second) ? items_[i].second : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i ? ", " : "") << "\"" << items_[i].first << "\": " << buf;
  }
  out << "}";
  return out.str();
}

void PrintLatency(const std::string& label, const std::vector<double>& ms) {
  const double resolved = HighestResolvedPercentile(ms.size());
  std::printf("  %-28s p50 %9.3f ms  p99 %9.3f ms  p%.1f %9.3f ms  n=%zu\n",
              label.c_str(), Median(ms), Quantile(ms, 0.99), resolved,
              Quantile(ms, resolved / 100.0), ms.size());
}

namespace {

template <typename G>
G RelabelImpl(const G& g, uint64_t seed) {
  Rng rng(seed);
  const std::vector<uint32_t> perm = RandomPermutation(g.NumVertices(), rng);
  auto edges = g.EdgeList();
  for (auto& e : edges) {
    if constexpr (G::kWeighted) {
      e.from = perm[e.from];
      e.to = perm[e.to];
    } else {
      e.first = perm[e.first];
      e.second = perm[e.second];
    }
  }
  return G::FromEdges(g.NumVertices(), std::move(edges));
}

}  // namespace

Digraph Relabel(const Digraph& g, uint64_t seed) {
  return RelabelImpl(g, seed);
}

WeightedDigraph Relabel(const WeightedDigraph& g, uint64_t seed) {
  return RelabelImpl(g, seed);
}

std::vector<EdgeBatch> MakeUpdateBatches(
    const Digraph& g, int64_t batches, int64_t ops_per_batch, uint64_t seed,
    std::vector<std::vector<Edge>>* versions) {
  Rng rng(seed);
  const uint32_t n = g.NumVertices();
  std::vector<Edge> present = g.EdgeList();
  std::set<Edge> members(present.begin(), present.end());
  std::vector<EdgeBatch> out;
  out.reserve(static_cast<size_t>(batches));
  for (int64_t b = 0; b < batches; ++b) {
    EdgeBatch batch;
    std::set<Edge> touched;  // one op per edge per batch keeps acks exact
    while (static_cast<int64_t>(batch.size()) < ops_per_batch) {
      if (batch.size() % 2 == 0 && !present.empty()) {
        const size_t k = rng.NextBounded(present.size());
        const Edge e = present[k];
        if (touched.count(e) != 0) continue;
        touched.insert(e);
        present[k] = present.back();
        present.pop_back();
        members.erase(e);
        batch.push_back(EdgeOp::Delete(e.first, e.second));
      } else {
        const Edge e{static_cast<VertexId>(rng.NextBounded(n)),
                     static_cast<VertexId>(rng.NextBounded(n))};
        if (e.first == e.second || members.count(e) != 0 ||
            touched.count(e) != 0) {
          continue;
        }
        touched.insert(e);
        present.push_back(e);
        members.insert(e);
        batch.push_back(EdgeOp::Insert(e.first, e.second));
      }
    }
    out.push_back(std::move(batch));
    if (versions != nullptr) {
      versions->emplace_back(members.begin(), members.end());
    }
  }
  return out;
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
}  // namespace ddsgraph
