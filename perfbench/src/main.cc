// ddsbench — the benchmark program behind perfbench/run.py.
//
//   ddsbench --workload solve|serve-update --seed N --seconds S
//            --trace 0|1 [--spans_out FILE] [--scratch_dir DIR]
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "info", "e2e", "layers"};
// run.py turns it into the result line BENCHMARK.json defines. Exits 1
// when a correctness gate fails.

#include <cstdio>
#include <string>
#include <thread>

#include "util/flags.h"
#include "workloads.h"

namespace ddsgraph {
namespace perfbench {

void RunOutcome::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

int Main(int argc, char** argv) {
  FlagSet flags("ddsbench", "perfbench workloads for the DDS stack");
  std::string* workload =
      flags.String("workload", "", "solve | serve-update");
  int64_t* seed = flags.Int64("seed", 1, "workload seed (inputs + traffic)");
  double* seconds = flags.Double("seconds", 10, "measured window length");
  int64_t* trace = flags.Int64("trace", 0, "1 = traced run (per-layer)");
  std::string* spans_out =
      flags.String("spans_out", "", "traced runs write their spans here");
  std::string* scratch_dir =
      flags.String("scratch_dir", ".bench_build/tmp", "temp files (WAL)");
  flags.ParseOrDie(argc, argv);

  RunConfig config;
  config.seed = static_cast<uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace != 0;
  config.threads = NumProcs();
  config.scratch_dir = *scratch_dir;
  if (config.seconds <= 0) {
    std::fprintf(stderr, "ddsbench: --seconds must be > 0\n");
    return 2;
  }
  Tracer tracer(config.trace);

  RunOutcome out;
  if (*workload == "solve") {
    out = RunSolveWorkload(config, &tracer);
  } else if (*workload == "serve-update") {
    out = RunServeWorkload(config, &tracer);
  } else {
    std::fprintf(stderr, "ddsbench: unknown --workload '%s'\n",
                 workload->c_str());
    return 2;
  }

  // The share of attempted operations that succeeded and verified;
  // failed_frac = 1 - ok_frac (an end-to-end metric must never read 0).
  out.e2e.Set("ok_frac", out.attempted > 0
                             ? static_cast<double>(out.attempted - out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0);
  for (const std::string& error : out.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  if (config.trace && !spans_out->empty()) {
    if (tracer.WriteJson(*spans_out)) {
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  spans_out->c_str());
    } else {
      std::printf("spans: could not write %s\n", spans_out->c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"info\": {\"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"threads\": %d}, \"e2e\": %s, \"layers\": %s}\n",
      out.correct ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), config.threads,
      std::thread::hardware_concurrency(), config.threads,
      out.e2e.Json().c_str(), out.layers.Json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace ddsgraph

int main(int argc, char** argv) {
  return ddsgraph::perfbench::Main(argc, argv);
}
