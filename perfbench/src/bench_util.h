#ifndef DDSGRAPH_PERFBENCH_BENCH_UTIL_H_
#define DDSGRAPH_PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "stream/edge_stream.h"

/// \file
/// Shared pieces of the perfbench workloads: a monotonic clock, in-memory
/// spans, latency statistics, named metric sets, the seeded vertex
/// relabeling that turns a workload seed into graph inputs, and the
/// seeded update batches of the write workloads.

namespace ddsgraph {
namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Logical CPUs this process may run on (sched_getaffinity), the `nproc`
/// every load and thread count is sized from.
int NumProcs();

/// One recorded interval. `parent` indexes the span list (-1 = root);
/// spans of one request or pass share `request`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Spans kept in memory and written out when the run ends. Recording is a
/// no-op when the tracer is off, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Returns the new span's index, or -1 when tracing is off.
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, int64_t request);
  /// Closes a span opened with end == start; ignores index -1.
  void SetEnd(int64_t index, double end);
  /// Writes the spans as a JSON array, one span per line.
  bool WriteJson(const std::string& path) const;
  size_t size() const;

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Linear-interpolated median (util/stats.h Quantile); 0 when empty.
double Median(const std::vector<double>& values);
/// The reported tail: the 99th percentile when at least ten samples lie
/// beyond it (>= 1000 samples), otherwise the highest percentile that
/// still has ten samples beyond it, so a short run's tail is not one
/// sample's noise.
double Tail(const std::vector<double>& values);

/// Named metric values in insertion order. Units live in BENCHMARK.json;
/// run.py attaches them and rejects names it does not know.
class MetricSet {
 public:
  void Set(const std::string& name, double value);
  /// `{"name": value, ...}` with every value at full precision.
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, double>> items_;
  std::map<std::string, size_t> index_;
};

/// Prints one human-readable latency line: median, p99, the highest
/// percentile with >= 10 samples beyond it, and the sample count.
void PrintLatency(const std::string& label, const std::vector<double>& ms);

/// Maps vertex v to perm[v] for a seeded random permutation. The
/// relabeled graph has the same optimum, cores and degree sequence, so a
/// new seed moves memory layout and every id-order tie-break without
/// changing how much work the solvers have to do.
Digraph Relabel(const Digraph& g, uint64_t seed);
WeightedDigraph Relabel(const WeightedDigraph& g, uint64_t seed);

/// Seeded update batches against `g`, each `ops_per_batch` ops: half
/// deletions of edges present at that point, half insertions of absent
/// ones, all inside g's vertex range, so the edge count stays flat and
/// every op changes the graph. `versions`, when non-null, receives the
/// edge list after each batch (index b = after batches[0..b]).
std::vector<EdgeBatch> MakeUpdateBatches(
    const Digraph& g, int64_t batches, int64_t ops_per_batch, uint64_t seed,
    std::vector<std::vector<Edge>>* versions);

/// Creates `path` and its parents (mkdir -p); false on failure.
bool MakeDirs(const std::string& path);
/// Removes a directory tree; silently ignores missing paths.
void RemoveTree(const std::string& path);

}  // namespace perfbench
}  // namespace ddsgraph

#endif  // DDSGRAPH_PERFBENCH_BENCH_UTIL_H_
