// The `solve` workload: offline certified and approximate solves through
// one DdsEngine per graph, on a skewed R-MAT graph (the [x,y]-core layer
// dominates) and a flat uniform graph (the max-flow layer dominates). The
// serve stack, response cache and WAL are never touched; the stream layer
// only sees the in-process update rung (CatalogEntry::ApplyEdgeBatch on a
// separate non-persistent catalog, a few milliseconds per pass).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/core_approx.h"
#include "core/xy_core_decomposition.h"
#include "dds/engine.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "util/memory.h"
#include "workloads.h"

namespace ddsgraph {
namespace perfbench {
namespace {

// The two base graphs (perfbench/spec.json says why these sizes) and
// their generator seeds (bench_common's rmat-200k and uni-50k seeds); the
// workload seed relabels them.
constexpr uint32_t kRmatScale = 14;
constexpr int64_t kRmatEdges = 100000;
constexpr uint64_t kRmatGenSeed = 203;
constexpr uint32_t kUniVertices = 4096;
constexpr int64_t kUniEdges = 10000;
constexpr uint64_t kUniGenSeed = 201;
// The update rung: batches per pass and ops per batch.
constexpr int64_t kUpdatesPerPass = 64;
constexpr int64_t kOpsPerBatch = 128;
// A solve counts toward goodput when it finishes within this limit.
constexpr double kLatencyLimitMs = 10000;

constexpr int kFlowReps = 5;
constexpr int kSkylineReps = 3;
// Traced runs time this many traced and as many untraced 1-thread exact
// solves per graph, alternating, and compare their medians.
constexpr int kTracePairs = 3;

// One graph of the workload with its engine and the pass measurements.
struct SolveGraph {
  std::string name;  // "rmat" | "uni"
  Digraph graph;
  std::unique_ptr<DdsEngine> engine;
  std::vector<DdsSolution> exact;  // nproc-thread exact solves
  std::vector<DdsSolution> approx;
  std::vector<DdsSolution> peel;
  std::vector<double> exact_s, approx_s, peel_s;
};

struct SolveInputs {
  SolveGraph rmat, uni;
  std::vector<EdgeBatch> batches;  // the update rung's batches, per pass
};

std::unique_ptr<SolveInputs> Setup(const RunConfig& config,
                                   double* generate_s) {
  auto in = std::make_unique<SolveInputs>();
  const double t0 = Now();
  in->rmat.name = "rmat";
  in->rmat.graph =
      Relabel(RmatDigraph(kRmatScale, kRmatEdges, kRmatGenSeed),
              config.seed * 2 + 1);
  in->uni.name = "uni";
  in->uni.graph =
      Relabel(UniformDigraph(kUniVertices, kUniEdges, kUniGenSeed),
              config.seed * 2 + 2);
  *generate_s = Now() - t0;
  in->rmat.engine = std::make_unique<DdsEngine>(in->rmat.graph);
  in->uni.engine = std::make_unique<DdsEngine>(in->uni.graph);
  in->batches = MakeUpdateBatches(in->uni.graph, kUpdatesPerPass,
                                  kOpsPerBatch, config.seed * 7 + 3, nullptr);
  return in;
}

DdsRequest Request(DdsAlgorithm algorithm, int threads) {
  DdsRequest request;
  request.algorithm = algorithm;
  request.threads = threads;
  return request;
}

// Bit-identity of an exact solution against the 1-thread reference.
void CheckExact(const DdsSolution& s, const DdsSolution& ref,
                const std::string& what, RunOutcome* out) {
  if (s.interrupted || s.density != ref.density ||
      s.lower_bound != s.upper_bound || s.lower_bound != ref.density) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: density %.17g [%.17g, %.17g] vs 1-thread %.17g",
                  what.c_str(), s.density, s.lower_bound, s.upper_bound,
                  ref.density);
    out->Fail(buf);
  }
}

// The approximation's [density, upper_bound] must bracket the optimum.
void CheckBracket(const DdsSolution& s, double opt, const std::string& what,
                  RunOutcome* out) {
  const double slack = 1e-9 * std::max(1.0, opt);
  if (!(s.density <= opt + slack && s.upper_bound >= opt - slack)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: bracket [%.17g, %.17g] misses optimum %.17g",
                  what.c_str(), s.density, s.upper_bound, opt);
    out->Fail(buf);
  }
}

// Phases of one traced 1-thread exact solve, from progress-callback
// timestamps: before the first callback (core decomposition + first
// build), between callbacks (one guess or probe boundary each), after the
// last one (ratio-space bookkeeping and the final evaluation).
struct Phases {
  double total_s = 0, pre_probe_s = 0, probe_s = 0, self_s = 0;
  double guess_p50_ms = 0;
  DdsSolution solution;
};

Phases TracedExact(SolveGraph& g, Tracer* tracer, int64_t request_id) {
  std::vector<double> stamps;
  stamps.reserve(4096);
  DdsRequest request = Request(DdsAlgorithm::kCoreExact, 1);
  request.progress = [&stamps](const DdsProgress&) {
    stamps.push_back(Now());
    return true;
  };
  const double t0 = Now();
  Result<DdsSolution> solved = g.engine->Solve(request);
  const double t1 = Now();
  Phases ph;
  ph.total_s = t1 - t0;
  if (solved.ok()) ph.solution = std::move(solved).value();
  const int64_t root =
      tracer->Add("dds.solve." + g.name, t0, t1, -1, request_id);
  if (stamps.empty()) {
    ph.pre_probe_s = ph.total_s;
    return ph;
  }
  ph.pre_probe_s = stamps.front() - t0;
  ph.probe_s = stamps.back() - stamps.front();
  ph.self_s = t1 - stamps.back();
  tracer->Add("dds.pre_probe", t0, stamps.front(), root, request_id);
  std::vector<double> guesses_ms;
  guesses_ms.reserve(stamps.size());
  for (size_t i = 1; i < stamps.size(); ++i) {
    guesses_ms.push_back((stamps[i] - stamps[i - 1]) * 1e3);
    tracer->Add("dds.guess", stamps[i - 1], stamps[i], root, request_id);
  }
  tracer->Add("dds.self", stamps.back(), t1, root, request_id);
  ph.guess_p50_ms = Median(guesses_ms);
  return ph;
}

// Per-layer measurements of one graph in a traced run.
void LayerMetrics(SolveGraph& g, const DdsSolution& ref, double exact_1t_s,
                  int threads, Tracer* tracer, int64_t request_id,
                  RunOutcome* out) {
  const std::string sfx = "." + g.name;
  MetricSet& m = out->layers;

  // core: the skyline walk and the 2-approximation, single-threaded.
  std::vector<double> skyline_s;
  size_t points = 0;
  for (int r = 0; r < kSkylineReps; ++r) {
    const double t0 = Now();
    points = CoreSkyline(g.graph).size();
    skyline_s.push_back(Now() - t0);
    tracer->Add("core.skyline", t0, t0 + skyline_s.back(), -1, request_id);
  }
  double t0 = Now();
  const CoreApproxResult approx = CoreApprox(g.graph);
  const double approx_1t_s = Now() - t0;
  tracer->Add("core.approx_1t", t0, t0 + approx_1t_s, -1, request_id);
  if (approx.lower_bound > ref.density + 1e-9 * ref.density ||
      approx.upper_bound < ref.density - 1e-9 * ref.density) {
    out->Fail("CoreApprox bounds miss the optimum on " + g.name);
  }
  const Result<DdsSolution> approx_engine_1t =
      g.engine->Solve(Request(DdsAlgorithm::kCoreApprox, 1));
  const double ratios_1t =
      approx_engine_1t.ok()
          ? static_cast<double>(approx_engine_1t.value().stats.ratios_probed)
          : 0;
  std::vector<double> ratios_nt;
  for (const DdsSolution& s : g.approx) {
    ratios_nt.push_back(static_cast<double>(s.stats.ratios_probed));
  }
  if (ratios_nt.empty()) {  // the passes run no approximation on this graph
    const Result<DdsSolution> approx_nt =
        g.engine->Solve(Request(DdsAlgorithm::kCoreApprox, threads));
    if (approx_nt.ok()) {
      ratios_nt.push_back(
          static_cast<double>(approx_nt.value().stats.ratios_probed));
    }
  }
  m.Set("core.skyline_s" + sfx, Median(skyline_s));
  m.Set("core.skyline_points" + sfx, static_cast<double>(points));
  m.Set("core.approx_1t_s" + sfx, approx_1t_s);
  m.Set("core.approx_ratios_1t" + sfx, ratios_1t);
  m.Set("core.approx_ratios_nt" + sfx, Median(ratios_nt));
  m.Set("core.approx_waste" + sfx,
        ratios_1t > 0 ? Median(ratios_nt) / ratios_1t : 0);

  // flow: the deterministic 1-thread counters, then one DDS network at
  // the optimum's ratio and density, built and solved in isolation.
  const SolverStats& st = ref.stats;
  m.Set("flow.arcs_scanned" + sfx, static_cast<double>(st.arcs_scanned));
  m.Set("flow.networks_built" + sfx,
        static_cast<double>(st.flow_networks_built));
  m.Set("flow.networks_reused" + sfx,
        static_cast<double>(st.flow_networks_reused));
  m.Set("flow.warm_start_augmentations" + sfx,
        static_cast<double>(st.warm_start_augmentations));
  m.Set("flow.solves_dinic" + sfx, static_cast<double>(st.flow_solves_dinic));
  m.Set("flow.solves_push_relabel" + sfx,
        static_cast<double>(st.flow_solves_push_relabel));
  m.Set("flow.global_relabels" + sfx,
        static_cast<double>(st.global_relabels));
  m.Set("flow.max_network_nodes" + sfx,
        static_cast<double>(st.max_network_nodes));
  // The [x,y]-core that contains the optimum pair at its own ratio
  // (x = rho / (2 sqrt(a)), y = sqrt(a) rho / 2): the network an
  // exact probe at the optimum ratio starts from.
  std::vector<double> build_s, maxflow_s;
  int64_t arcs = 0;
  const double sqrt_ratio =
      std::sqrt(static_cast<double>(ref.pair.s.size()) /
                static_cast<double>(std::max<size_t>(1, ref.pair.t.size())));
  const XyCore core = ComputeXyCore(
      g.graph,
      static_cast<int64_t>(std::ceil(ref.density / (2 * sqrt_ratio) - 1e-9)),
      static_cast<int64_t>(std::ceil(sqrt_ratio * ref.density / 2 - 1e-9)));
  const std::vector<VertexId>& s_side = core.s;
  const std::vector<VertexId>& t_side = core.t;
  DdsBuildScratch scratch;
  for (int r = 0; r < kFlowReps; ++r) {
    t0 = Now();
    DdsNetwork net = BuildDdsNetwork(g.graph, s_side, t_side, sqrt_ratio,
                                     ref.density, &scratch);
    const double t1 = Now();
    Dinic dinic(&net.net);
    dinic.Solve(net.source, net.sink);
    const double t2 = Now();
    build_s.push_back(t1 - t0);
    maxflow_s.push_back(t2 - t1);
    arcs = dinic.arcs_scanned();
    const int64_t parent = tracer->Add("flow.network", t0, t2, -1,
                                       request_id);
    tracer->Add("flow.build", t0, t1, parent, request_id);
    tracer->Add("flow.maxflow", t1, t2, parent, request_id);
  }
  std::printf("  %s flow network on the optimum's core: %zu x %zu\n",
              g.name.c_str(), s_side.size(), t_side.size());
  m.Set("flow.build_s" + sfx, Median(build_s));
  m.Set("flow.maxflow_s" + sfx, Median(maxflow_s));
  m.Set("flow.arcs_per_s" + sfx,
        Median(maxflow_s) > 0 ? static_cast<double>(arcs) / Median(maxflow_s)
                              : 0);

  // dds: the 1-thread solve against the nproc-thread passes, and the
  // phase split of a traced 1-thread solve.
  const double exact_nt_s = Median(g.exact_s);
  m.Set("dds.exact_1t_s" + sfx, exact_1t_s);
  m.Set("dds.speedup" + sfx, exact_nt_s > 0 ? exact_1t_s / exact_nt_s : 0);
  m.Set("dds.parallel_efficiency" + sfx,
        exact_nt_s > 0 ? exact_1t_s / exact_nt_s / threads : 0);
  m.Set("dds.ratios_probed" + sfx, static_cast<double>(st.ratios_probed));
  m.Set("dds.binary_search_iters" + sfx,
        static_cast<double>(st.binary_search_iters));
  m.Set("dds.intervals_pruned" + sfx,
        static_cast<double>(st.intervals_pruned));
}

}  // namespace

RunOutcome RunSolveWorkload(const RunConfig& config, Tracer* tracer) {
  RunOutcome out;
  const int threads = config.threads;
  // ---- setup, repeated; the last one is kept ----------------------------
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<SolveInputs> in;
  for (int r = 0; r < kSetupReps; ++r) {
    in.reset();
    const double t0 = Now();
    double gen = 0;
    in = Setup(config, &gen);
    setup_s.push_back(Now() - t0);
    generate_s.push_back(gen);
    tracer->Add("setup", t0, t0 + setup_s.back(), -1, r);
  }
  std::printf("solve: rmat n=%u m=%lld, uni n=%u m=%lld, threads=%d\n",
              in->rmat.graph.NumVertices(),
              static_cast<long long>(in->rmat.graph.NumEdges()),
              in->uni.graph.NumVertices(),
              static_cast<long long>(in->uni.graph.NumEdges()), threads);

  // ---- the measured window: whole passes until `seconds` have elapsed ---
  std::vector<double> read_ms, update_ms;
  const double window_start = Now();
  int64_t pass = 0;
  while (Now() - window_start < config.seconds || pass < 2) {
    const double pass_start = Now();
    const int64_t pass_span =
        tracer->Add("pass", pass_start, pass_start, -1, pass);
    struct Op {
      SolveGraph* g;
      DdsAlgorithm algorithm;
      std::vector<DdsSolution>* results;
      std::vector<double>* seconds;
      const char* span;
    };
    const Op exact_rmat{&in->rmat, DdsAlgorithm::kCoreExact, &in->rmat.exact,
                        &in->rmat.exact_s, "solve.exact.rmat"};
    const Op approx_rmat{&in->rmat, DdsAlgorithm::kCoreApprox,
                         &in->rmat.approx, &in->rmat.approx_s,
                         "solve.approx.rmat"};
    const Op peel_rmat{&in->rmat, DdsAlgorithm::kPeelApprox, &in->rmat.peel,
                       &in->rmat.peel_s, "solve.peel.rmat"};
    const Op exact_uni{&in->uni, DdsAlgorithm::kCoreExact, &in->uni.exact,
                       &in->uni.exact_s, "solve.exact.uni"};
    // Cheap solves repeat within a pass so every kind gets a dozen or more
    // samples per run; the exact solves' schedule-dependent times need
    // them most.
    const Op ops[] = {exact_rmat, approx_rmat, peel_rmat, exact_uni,
                      approx_rmat, peel_rmat,  exact_rmat, approx_rmat,
                      peel_rmat,   exact_uni};
    for (const Op& op : ops) {
      ++out.attempted;
      const double t0 = Now();
      Result<DdsSolution> solved =
          op.g->engine->Solve(Request(op.algorithm, threads));
      const double t1 = Now();
      tracer->Add(op.span, t0, t1, pass_span, pass);
      if (!solved.ok()) {
        out.Fail(std::string(op.span) + ": " + solved.status().ToString());
        continue;
      }
      op.results->push_back(std::move(solved).value());
      op.seconds->push_back(t1 - t0);
      read_ms.push_back((t1 - t0) * 1e3);
    }
    // The update rung: the same batches on a freshly loaded copy of uni,
    // so every pass times identical overlay work.
    GraphCatalog update_catalog;
    if (!update_catalog.AddGraph("uni", in->uni.graph).ok()) {
      out.Fail("update catalog could not load uni");
    }
    CatalogEntry* update_entry = update_catalog.Find("uni");
    for (size_t b = 0; update_entry != nullptr && b < in->batches.size();
         ++b) {
      ++out.attempted;
      const double t0 = Now();
      const Result<CatalogEntry::UpdateResult> applied =
          update_entry->ApplyEdgeBatch(in->batches[b]);
      const double t1 = Now();
      tracer->Add("stream.apply", t0, t1, pass_span, pass);
      if (!applied.ok() || applied.value().applied != kOpsPerBatch ||
          applied.value().version != static_cast<int64_t>(b) + 1) {
        out.Fail("update batch " + std::to_string(b) +
                 " was not applied in full");
        continue;
      }
      update_ms.push_back((t1 - t0) * 1e3);
    }
    tracer->SetEnd(pass_span, Now());
    ++pass;
  }
  const double window_s = Now() - window_start;

  // ---- correctness, outside the window ----------------------------------
  SolveGraph* graphs[] = {&in->rmat, &in->uni};
  DdsSolution ref[2];
  double exact_1t_s[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    SolveGraph& g = *graphs[i];
    const double t0 = Now();
    Result<DdsSolution> solved =
        g.engine->Solve(Request(DdsAlgorithm::kCoreExact, 1));
    exact_1t_s[i] = Now() - t0;
    tracer->Add("reference.exact_1t." + g.name, t0, t0 + exact_1t_s[i], -1,
                -1);
    if (!solved.ok() || solved.value().interrupted ||
        solved.value().lower_bound != solved.value().upper_bound) {
      out.Fail("1-thread reference solve on " + g.name + " failed");
      continue;
    }
    ref[i] = std::move(solved).value();
    for (const DdsSolution& s : g.exact) {
      CheckExact(s, ref[i], "core-exact@" + std::to_string(threads) + " on " +
                                g.name, &out);
    }
    for (const DdsSolution& s : g.approx) {
      CheckBracket(s, ref[i].density, "core-approx on " + g.name, &out);
    }
    for (const DdsSolution& s : g.peel) {
      CheckBracket(s, ref[i].density, "peel-approx on " + g.name, &out);
    }
  }

  // ---- end-to-end metrics -------------------------------------------------
  MetricSet& e = out.e2e;
  e.Set("setup_s", Median(setup_s));
  e.Set("peak_rss_mb", static_cast<double>(PeakRssKib()) / 1024.0);
  e.Set("exact_rmat_s", Median(in->rmat.exact_s));
  e.Set("approx_rmat_s", Median(in->rmat.approx_s));
  e.Set("peel_rmat_s", Median(in->rmat.peel_s));
  e.Set("exact_uni_s", Median(in->uni.exact_s));
  e.Set("read_p50_ms", Median(read_ms));
  e.Set("read_p99_ms", Tail(read_ms));
  int64_t good = 0;
  for (const double ms : read_ms) good += ms <= kLatencyLimitMs ? 1 : 0;
  e.Set("read_goodput_qps", static_cast<double>(good) / window_s);
  e.Set("update_p50_ms", Median(update_ms));
  e.Set("update_p99_ms", Tail(update_ms));

  std::printf("solve: %lld passes in %.3f s\n", static_cast<long long>(pass),
              window_s);
  PrintLatency("read (all solves)", read_ms);
  PrintLatency("update (in-process apply)", update_ms);
  out.layers.Set("graph.generate_s", Median(generate_s));
  if (!config.trace) return out;

  // ---- per-layer metrics (traced run only) --------------------------------
  // Per graph, traced and untraced 1-thread exact solves alternate (the
  // reference solve above is the first untraced one). A traced solve
  // records a span per progress callback, so the gap between the two
  // medians is the tracing cost. The phases of the median traced solve
  // partition its wall time exactly, so comparing their sum with the
  // untraced median checks that the traced phases stand for the untraced
  // solve.
  double traced_total = 0, untraced_total = 0, phase_err = 0;
  for (int i = 0; i < 2; ++i) {
    SolveGraph& g = *graphs[i];
    if (ref[i].pair.Empty()) continue;
    std::vector<double> untraced_s = {exact_1t_s[i]};
    std::vector<Phases> traced;
    for (int k = 0; k < kTracePairs; ++k) {
      if (k > 0) {
        const double t0 = Now();
        const Result<DdsSolution> solved =
            g.engine->Solve(Request(DdsAlgorithm::kCoreExact, 1));
        untraced_s.push_back(Now() - t0);
        if (!solved.ok() || solved.value().density != ref[i].density) {
          out.Fail("untraced 1-thread solve on " + g.name + " differs");
        }
      }
      traced.push_back(TracedExact(g, tracer, 2000 + i));
      if (traced.back().solution.density != ref[i].density) {
        out.Fail("traced 1-thread solve on " + g.name + " differs");
      }
    }
    std::sort(traced.begin(), traced.end(),
              [](const Phases& a, const Phases& b) {
                return a.total_s < b.total_s;
              });
    const Phases& ph = traced[traced.size() / 2];
    const double exact_1t = Median(untraced_s);
    LayerMetrics(g, ref[i], exact_1t, threads, tracer, 1000 + i, &out);
    const std::string sfx = "." + g.name;
    out.layers.Set("dds.pre_probe_s" + sfx, ph.pre_probe_s);
    out.layers.Set("dds.probe_s" + sfx, ph.probe_s);
    out.layers.Set("dds.guess_p50_ms" + sfx, ph.guess_p50_ms);
    out.layers.Set("dds.self_s" + sfx, ph.self_s);
    traced_total += ph.total_s;
    untraced_total += exact_1t;
    const double sum = ph.pre_probe_s + ph.probe_s + ph.self_s;
    const double err = std::fabs(sum - exact_1t) / exact_1t;
    phase_err = std::max(phase_err, err);
    std::printf("  %s 1-thread phases (median of %d traced): pre_probe %.4f "
                "+ probe %.4f + self %.4f = %.4f s vs untraced median %.4f s "
                "(%s)\n",
                g.name.c_str(), kTracePairs, ph.pre_probe_s, ph.probe_s,
                ph.self_s, sum, exact_1t,
                err <= 0.05 ? "within 5%" : "NOT within 5%");
  }
  out.layers.Set("bench.trace_overhead",
                 untraced_total > 0
                     ? (traced_total - untraced_total) / untraced_total
                     : 0);
  out.layers.Set("bench.phase_sum_err", phase_err);
  return out;
}

}  // namespace perfbench
}  // namespace ddsgraph
