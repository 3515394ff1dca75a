#ifndef DDSGRAPH_PERFBENCH_WORKLOADS_H_
#define DDSGRAPH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

/// \file
/// The perfbench workloads. Each one builds its inputs from the
/// workload seed, measures for `seconds`, checks every output, and fills
/// two metric sets: the end-to-end metrics of an untraced run and the
/// per-layer metrics of a traced one (definitions in perfbench/spec.json).

namespace ddsgraph {
namespace perfbench {

/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// The run-time inputs of one run; every other parameter is a constant of
/// its workload (perfbench/spec.json documents them).
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;  ///< solver threads and load connections (= nproc)
  std::string scratch_dir;  ///< temp files (WAL data dirs)
};

/// What a run reports. `correct` is false on any correctness gate;
/// `failed` counts every operation that failed, was refused, timed out or
/// did not verify.
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet e2e;
  MetricSet layers;
  std::vector<std::string> errors;  ///< first few gate violations

  void Fail(const std::string& what);
};

RunOutcome RunSolveWorkload(const RunConfig& config, Tracer* tracer);
RunOutcome RunServeWorkload(const RunConfig& config, Tracer* tracer);

}  // namespace perfbench
}  // namespace ddsgraph

#endif  // DDSGRAPH_PERFBENCH_WORKLOADS_H_
