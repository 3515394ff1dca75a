#include "dds/core_exact.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "core/core_approx.h"
#include "core/xy_core.h"
#include "dds/ratio_space.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "flow/flow_engine.h"
#include "flow/min_cut.h"
#include "flow/push_relabel.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// Core thresholds implied by density `rho` at ratio bounds [sqrt_lo,
// sqrt_hi]: any pair strictly denser than rho with ratio a in the interval
// has S-side out-degrees > rho/(2 sqrt(a)) >= rho/(2 sqrt_hi) and T-side
// in-degrees > rho*sqrt(a)/2 >= rho*sqrt_lo/2 (DESIGN.md §2, containment).
// Degrees are integers, so they are >= floor(bound)+1. The same containment
// holds verbatim for weighted degrees (integer weights).
int64_t SideThreshold(double bound) {
  return static_cast<int64_t>(std::floor(bound)) + 1;
}

template <typename G>
struct EngineState {
  const G* g = nullptr;
  ExactOptions options;
  double delta = 0;
  double upper_global = 0;
  DdsPair incumbent;
  double incumbent_density = 0;
  /// Build scratch shared by every probe of the solve, so per-network
  /// construction cost tracks the candidate sets, not O(n) (DESIGN.md §7).
  /// Points at the caller's workspace (DdsEngine reuse) or at `owned`.
  ProbeWorkspace* workspace = nullptr;
  ProbeWorkspace owned_workspace;
  /// Deadline/cancellation hook; may be null. When it fires, the solve
  /// unwinds with `interrupted` set and `anytime_upper` a certified upper
  /// bound covering every ratio not yet exactly resolved.
  SolveControl* control = nullptr;
  bool interrupted = false;
  double anytime_upper = 0;
  SolverStats stats;
};

// The engine-level progress snapshot handed to the control: the global
// incumbent and certified bound. Callers hold the search mutex and have
// checked that `control` is set.
template <typename G>
DdsProgress ProgressOf(const EngineState<G>& state) {
  DdsProgress progress;
  progress.lower_bound = state.incumbent_density;
  progress.upper_bound = state.upper_global;
  progress.ratios_probed = state.stats.ratios_probed;
  progress.binary_search_iters = state.stats.binary_search_iters;
  progress.elapsed_seconds = state.control->ElapsedSeconds();
  return progress;
}

template <typename G>
bool ControlStopped(const EngineState<G>& state) {
  return state.control != nullptr && state.control->stopped();
}

// Marks the solve interrupted and derives the anytime upper bound via
// AnytimeUpperBound (dds/ratio_space.h). Pass nullptr when interrupted
// before the interval bookkeeping exists (endpoint probes, exhaustive
// sweep); the global bound is the only certificate then.
template <typename G>
void FinishInterrupted(EngineState<G>* state,
                       const std::vector<RatioInterval>* work) {
  state->interrupted = true;
  if (work == nullptr) {
    state->anytime_upper = state->upper_global;
    return;
  }
  state->anytime_upper =
      AnytimeUpperBound(state->incumbent_density, state->delta, *work,
                        state->upper_global);
}

// Folds a finished probe into the engine state; callers hold the search
// mutex. The incumbent is replaced only by a strictly denser witness —
// one rule for every worker count, warm-start incumbent included.
template <typename G>
void AbsorbProbe(const RatioProbeResult& probe, EngineState<G>* state) {
  ++state->stats.ratios_probed;
  state->stats.flow_networks_built += probe.networks_built;
  state->stats.flow_networks_reused += probe.networks_reused;
  state->stats.warm_start_augmentations += probe.warm_start_augmentations;
  state->stats.arcs_scanned += probe.arcs_scanned;
  state->stats.global_relabels += probe.global_relabels;
  state->stats.flow_solves_dinic += probe.flow_solves_dinic;
  state->stats.flow_solves_push_relabel += probe.flow_solves_push_relabel;
  state->stats.binary_search_iters += probe.iterations;
  state->stats.max_network_nodes =
      std::max(state->stats.max_network_nodes, probe.max_network_nodes);
  if (state->options.record_network_sizes) {
    state->stats.network_sizes.insert(state->stats.network_sizes.end(),
                                      probe.network_sizes.begin(),
                                      probe.network_sizes.end());
  }
  if (!probe.best_pair.Empty() &&
      probe.best_density > state->incumbent_density) {
    state->incumbent = probe.best_pair;
    state->incumbent_density = probe.best_density;
  }
}

/// A located candidate core — the [x,y]-core of an interval context.
/// Shared immutably between the interval's two children, which locate
/// their (nested) cores *within* it instead of peeling the full graph.
struct CoreContext {
  std::vector<VertexId> s;
  std::vector<VertexId> t;
};
using CoreContextPtr = std::shared_ptr<const CoreContext>;

struct ContextProbe {
  RatioProbeResult probe;
  /// True when the context core was empty: no pair with ratio anywhere in
  /// (lo_ctx, hi_ctx) can beat the incumbent (containment), so the caller
  /// may discard the entire context, not just this ratio.
  bool context_exhausted = false;
  /// The candidate core this probe ran on (null when core pruning was
  /// off or the incumbent was still 0). Handed to the child intervals.
  CoreContextPtr located;
};

// Probes `ratio` in the interval context (lo_ctx, hi_ctx): candidates are
// located in the [x,y]-core implied by `incumbent_density` and the
// context (when core pruning is on). The binary search starts from 0 so
// that the returned h_upper genuinely tracks h(ratio) — that is what
// powers the interval pruning — but is truncated at `stop_below` (see
// header). Reads only the fields of `state` that stay fixed for the whole
// search and writes nothing but `workspace`, so workers run probes side
// by side (each on its own workspace) and absorb the results under the
// search mutex afterwards. Any valid lower bound works as
// `incumbent_density`; a stale (smaller) one merely yields a larger
// candidate core, never a wrong answer.
//
// `within`, when non-null, is a previously located core whose thresholds
// were no stronger than this context's — the parent interval's candidate
// core. Cores are nested, so the context core is located *inside it* in
// O(|within|) instead of peeling the full graph (the same fixpoint comes
// out; only the cost changes). The D&C loop threads each probe's located
// core to its two subintervals: the incumbent only rises and a child
// context is a sub-interval, so the child's [x,y]-thresholds dominate
// the parent's and the containment prerequisite always holds.
template <typename G>
ContextProbe ProbeInContextAt(const EngineState<G>& state,
                              double incumbent_density, const Fraction& ratio,
                              const Fraction& lo_ctx, const Fraction& hi_ctx,
                              double stop_below, const CoreContext* within,
                              ProbeWorkspace* workspace) {
  const G& g = *state.g;
  const ExactOptions& options = state.options;
  ContextProbe result;
  std::vector<VertexId> s_cand;
  std::vector<VertexId> t_cand;
  const std::vector<VertexId>* probe_s = &s_cand;
  const std::vector<VertexId>* probe_t = &t_cand;
  if (options.core_pruning && incumbent_density > 0) {
    const double sqrt_lo = std::sqrt(lo_ctx.ToDouble());
    const double sqrt_hi = std::sqrt(hi_ctx.ToDouble());
    const int64_t x_c = SideThreshold(incumbent_density / (2.0 * sqrt_hi));
    const int64_t y_c = SideThreshold(incumbent_density * sqrt_lo / 2.0);
    XyCore core =
        within != nullptr
            ? ComputeXyCoreWithin(g, x_c, y_c, within->s, within->t,
                                  &workspace->refine_scratch)
            : ComputeXyCore(g, x_c, y_c);
    if (core.Empty()) {
      result.probe.h_upper = incumbent_density;
      result.context_exhausted = true;
      return result;
    }
    auto located = std::make_shared<CoreContext>();
    located->s = std::move(core.s);
    located->t = std::move(core.t);
    result.located = std::move(located);
    probe_s = &result.located->s;
    probe_t = &result.located->t;
  } else {
    s_cand.resize(g.NumVertices());
    t_cand.resize(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      s_cand[v] = v;
      t_cand[v] = v;
    }
  }
  result.probe = ProbeRatio(g, *probe_s, *probe_t, ratio, /*lower_start=*/0.0,
                            state.upper_global, state.delta,
                            options.refine_cores_in_probe,
                            options.record_network_sizes, stop_below,
                            workspace, options.incremental_probe,
                            options.flow_engine, state.control);
  return result;
}

// One ProbeWorkspace per pool worker. Worker 0 probes on the caller's
// long-lived workspace (the engine serving path); the others own
// per-solve private scratch.
class WorkerWorkspaces {
 public:
  WorkerWorkspaces(ProbeWorkspace* caller, int workers)
      : caller_(caller), others_(static_cast<size_t>(workers - 1)) {}
  ProbeWorkspace* operator[](int worker) {
    return worker == 0 ? caller_
                       : &others_[static_cast<size_t>(worker - 1)];
  }

 private:
  ProbeWorkspace* caller_;
  std::vector<ProbeWorkspace> others_;
};

/// An interval on the work stack together with the located core of its
/// *parent* context (null = locate on the full graph).
struct IntervalWork {
  RatioInterval interval;
  CoreContextPtr parent;
};

// The anytime certificate wants the bare intervals of the outstanding
// work (dds/ratio_space.h).
template <typename G>
void FinishInterruptedWork(EngineState<G>* state,
                           const std::vector<IntervalWork>& work) {
  std::vector<RatioInterval> intervals;
  intervals.reserve(work.size());
  for (const IntervalWork& item : work) intervals.push_back(item.interval);
  FinishInterrupted(state, &intervals);
}

// Divide and conquer over ratio intervals (DESIGN.md §11), one loop for
// every worker count: the interval stack is shared by the pool's
// workers, each of which pops, probes, and deposits subintervals. All
// engine-state mutation (stats, incumbent, the stack) happens under one
// mutex; probes run outside it. Each worker prunes against the freshest
// incumbent available at pop time; a stale (lower) incumbent only makes
// pruning more conservative, so exactness is untouched. On one worker
// (ThreadPool(1) runs everything inline) this is exactly the depth-first
// sequential search. Anytime semantics survive: a truncated probe still
// returns certified bounds, its subintervals reach the stack before the
// worker exits, and the certificate is derived from the drained stack
// once every worker has stopped.
template <typename G>
void RunDivideAndConquer(EngineState<G>* state, ThreadPool* pool) {
  const int64_t n = state->g->NumVertices();
  const Fraction lo = MinRatio(n);
  const Fraction hi = MaxRatio(n);
  WorkerWorkspaces workspaces(state->workspace, pool->num_workers());
  std::mutex mu;

  // Endpoint probes, lo then hi. Each reads the incumbent when it starts
  // and is absorbed as soon as it returns, so on one worker the hi probe
  // prunes with the lo probe's witness; a probe that would start after
  // the control fired is skipped.
  const int64_t num_endpoints = lo == hi ? 1 : 2;
  std::vector<ContextProbe> endpoint(static_cast<size_t>(num_endpoints));
  pool->ParallelFor(num_endpoints, [&](int64_t i, int worker) {
    if (ControlStopped(*state)) return;
    const Fraction& ratio = i == 0 ? lo : hi;
    double incumbent = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      incumbent = state->incumbent_density;
    }
    ContextProbe probe =
        ProbeInContextAt(*state, incumbent, ratio, ratio, ratio,
                         /*stop_below=*/0.0, /*within=*/nullptr,
                         workspaces[worker]);
    std::lock_guard<std::mutex> lock(mu);
    if (!probe.context_exhausted) AbsorbProbe(probe.probe, state);
    endpoint[static_cast<size_t>(i)] = std::move(probe);
  });
  if (ControlStopped(*state)) {
    FinishInterrupted(state, nullptr);
    return;
  }
  if (num_endpoints == 1) return;

  // The root interval locates its core on the full graph (the endpoint
  // contexts are single ratios with *stronger* thresholds, so their cores
  // do not contain the root's); every descendant locates within its
  // parent's located core.
  std::condition_variable cv;
  std::vector<IntervalWork> work;
  work.push_back(IntervalWork{RatioInterval{lo, hi, endpoint[0].probe.h_upper,
                                            endpoint[1].probe.h_upper},
                              nullptr});
  int active = 0;  // probes in flight
  bool stop_draining = false;

  pool->RunOnAllWorkers([&](int worker) {
    ProbeWorkspace* workspace = workspaces[worker];
    std::unique_lock<std::mutex> lock(mu);
    while (!stop_draining) {
      if (work.empty()) {
        if (active == 0) break;  // every interval is resolved
        cv.wait(lock, [&] {
          return stop_draining || !work.empty() || active == 0;
        });
        continue;
      }
      // Deadline/callback once per pop. The progress snapshot is taken
      // under the lock but the control (and with it the user callback)
      // runs outside it, so a slow callback never serializes the other
      // workers behind this one — the stop latch is sticky and atomic.
      if (state->control != nullptr) {
        const DdsProgress progress = ProgressOf(*state);
        lock.unlock();
        const bool stop = state->control->ShouldStop(progress);
        lock.lock();
        if (stop || stop_draining) {
          stop_draining = true;
          break;
        }
        if (work.empty()) continue;  // another worker took the last item
      }
      IntervalWork item = std::move(work.back());
      work.pop_back();
      const RatioInterval& interval = item.interval;
      if (!HasRealizableRatioBetween(interval.lo, interval.hi, n)) continue;
      const double bound = IntervalDensityBound(interval);
      const double incumbent = state->incumbent_density;
      const double prune_at = incumbent + 1e-9 * std::max(1.0, incumbent);
      if (bound <= prune_at) {
        ++state->stats.intervals_pruned;
        continue;
      }
      std::optional<Fraction> mid = ProbeRatioForInterval(interval, n);
      CHECK(mid.has_value());  // HasRealizableRatioBetween passed
      // The weakest h_upper that still lets both subintervals be pruned:
      // their phi factors are at most this interval's.
      const double interval_phi = RatioMismatchPhi(
          std::sqrt(interval.hi.ToDouble() / interval.lo.ToDouble()));
      const double stop_below = incumbent / interval_phi;
      ++active;
      lock.unlock();
      const ContextProbe probe =
          ProbeInContextAt(*state, incumbent, *mid, interval.lo, interval.hi,
                           stop_below, item.parent.get(), workspace);
      lock.lock();
      --active;
      if (probe.context_exhausted) {
        // Nothing anywhere in (lo, hi) beats the incumbent it ran with.
        state->stats.intervals_pruned += 2;
        continue;
      }
      AbsorbProbe(probe.probe, state);
      // Subintervals reach the stack even after a truncated probe — the
      // truncated h_upper is still certified, which is what keeps the
      // anytime bound valid when the loop drains below.
      work.push_back(IntervalWork{RatioInterval{interval.lo, *mid,
                                                interval.h_upper_lo,
                                                probe.probe.h_upper},
                                  probe.located});
      work.push_back(IntervalWork{RatioInterval{*mid, interval.hi,
                                                probe.probe.h_upper,
                                                interval.h_upper_hi},
                                  probe.located});
      cv.notify_all();
    }
    cv.notify_all();  // wake waiters to see the finish or the stop
  });

  // Without a stop the workers only leave on an empty stack; anything
  // still on it is outstanding work the certificate has to cover.
  if (!work.empty()) FinishInterruptedWork(state, work);
}

// Exhaustive enumeration: the realizable ratios fan out across the pool
// (in index order on one worker). Each probe truncates its descent at
// the freshest incumbent, read when the probe starts.
template <typename G>
void RunExhaustive(EngineState<G>* state, ThreadPool* pool) {
  const int64_t n = state->g->NumVertices();
  CHECK_LE(n, state->options.max_exhaustive_n)
      << "exhaustive ratio enumeration is O(n^2); enable "
         "divide_and_conquer for graphs this large";
  const std::vector<Fraction> ratios = AllRealizableRatios(n);
  WorkerWorkspaces workspaces(state->workspace, pool->num_workers());
  std::mutex mu;
  pool->ParallelFor(
      static_cast<int64_t>(ratios.size()), [&](int64_t i, int worker) {
        double incumbent = 0;
        DdsProgress progress;
        {
          std::lock_guard<std::mutex> lock(mu);
          incumbent = state->incumbent_density;
          if (state->control != nullptr) progress = ProgressOf(*state);
        }
        // The control (and the user callback) runs outside the mutex so
        // a slow callback cannot serialize the pool; once it has fired,
        // the remaining ratios drain unprobed.
        if (state->control != nullptr &&
            state->control->ShouldStop(progress)) {
          return;
        }
        const Fraction& ratio = ratios[static_cast<size_t>(i)];
        // At a single ratio, any pair denser than the incumbent has
        // linearized value > incumbent, so the descent may stop there.
        const ContextProbe probe = ProbeInContextAt(
            *state, incumbent, ratio, ratio, ratio,
            /*stop_below=*/incumbent, /*within=*/nullptr, workspaces[worker]);
        if (probe.context_exhausted) return;
        std::lock_guard<std::mutex> lock(mu);
        AbsorbProbe(probe.probe, state);
      });
  // The control can also fire inside the *last* ratio's probe, truncating
  // its descent with no further ratio to notice; without this check the
  // solve would claim proven optimality it doesn't have.
  if (ControlStopped(*state)) FinishInterrupted(state, nullptr);
}

}  // namespace

template <typename G>
double ExactSearchDelta(const G& g) {
  const double n = std::max<double>(2.0, g.NumVertices());
  const double w =
      std::max<double>(1.0, static_cast<double>(g.TotalWeight()));
  const double spacing = 1.0 / (2.0 * w * n * n * n);
  return std::clamp(spacing, 1e-12, 1e-4);
}

template <typename G>
RatioProbeResult ProbeRatio(const G& g,
                            const std::vector<VertexId>& s_candidates,
                            const std::vector<VertexId>& t_candidates,
                            const Fraction& ratio, double lower_start,
                            double upper_start, double delta,
                            bool refine_cores, bool record_sizes,
                            double stop_below, ProbeWorkspace* workspace,
                            bool incremental, FlowEngine engine,
                            SolveControl* control) {
  CHECK_GT(delta, 0.0);
  ProbeWorkspace local_workspace;
  if (workspace == nullptr) workspace = &local_workspace;
  RatioProbeResult result;
  result.last_feasible = lower_start;
  result.h_upper = upper_start;
  if (upper_start <= lower_start) return result;

  const double sqrt_a = std::sqrt(ratio.ToDouble());
  double l = lower_start;
  double u = upper_start;
  std::vector<VertexId> cur_s = s_candidates;
  std::vector<VertexId> cur_t = t_candidates;

  // Parametric probe state (DESIGN.md §7). The network is built on a
  // snapshot of the candidate sets and stays valid for every guess whose
  // per-guess core is contained in that snapshot: rising guesses shrink
  // the core, so they always reuse; a guess falling below every level
  // built so far can outgrow the snapshot and forces a rebuild.
  // `network.net` lives at a stable address across rebuild-by-assignment,
  // so both kernels wrap it once and the residual state carries over.
  // Engine dispatch (flow/flow_engine.h): kAuto answers fresh builds with
  // push-relabel and warm-started re-solves with Dinic — push-relabel has
  // no warm start, so forcing it makes every reuse reset the flow and
  // re-solve cold on the reused topology. Either way the minimal min cut
  // (residual source side) is the same, so the witnesses — and with them
  // the whole search trajectory — do not depend on the engine.
  DdsNetwork network;
  Dinic dinic(&network.net);
  PushRelabel push_relabel(&network.net);
  bool network_valid = false;
  std::vector<VertexId> built_s;  // candidate-set snapshot of `network`
  std::vector<VertexId> built_t;

  const auto contained_in_network = [&](const std::vector<VertexId>& s,
                                        const std::vector<VertexId>& t) {
    for (VertexId v : s) {
      if (!workspace->built_s_marks.Contains(v)) return false;
    }
    for (VertexId v : t) {
      if (!workspace->built_t_marks.Contains(v)) return false;
    }
    return true;
  };

  while (u - l >= delta && u > stop_below) {
    if (control != nullptr) {
      DdsProgress progress;
      progress.lower_bound = result.best_density;  // probe-local witness
      progress.upper_bound = u;
      progress.binary_search_iters = result.iterations;
      progress.elapsed_seconds = control->ElapsedSeconds();
      // Exit before the next min cut; u and l stay certified (see header).
      if (control->ShouldStop(progress)) break;
    }
    const double guess = 0.5 * (l + u);
    if (guess <= l || guess >= u) break;  // double precision exhausted
    ++result.iterations;

    // The maximizer of the linearized objective at value > guess has
    // S-side (weighted) degrees > guess/(2 sqrt a) and T-side degrees >
    // guess*sqrt(a)/2 within the candidates, so feasibility of `guess`
    // is unchanged when restricting to this core.
    const std::vector<VertexId>* net_s = &cur_s;
    const std::vector<VertexId>* net_t = &cur_t;
    XyCore refined;
    if (refine_cores) {
      const int64_t x_c = SideThreshold(guess / (2.0 * sqrt_a));
      const int64_t y_c = SideThreshold(guess * sqrt_a / 2.0);
      refined = ComputeXyCoreWithin(g, x_c, y_c, cur_s, cur_t,
                                    &workspace->refine_scratch);
      if (refined.Empty()) {
        u = guess;
        continue;
      }
      net_s = &refined.s;
      net_t = &refined.t;
    }

    // Reuse test: the snapshot the current network was built on must
    // contain every potential witness for this guess. The snapshot is
    // refreshed only when the test fails, in both modes, so incremental
    // and fresh-build-per-guess runs solve min cuts over identical node
    // sets and follow bit-identical trajectories.
    const bool network_sufficient =
        network_valid && contained_in_network(*net_s, *net_t);
    if (!network_sufficient) {
      built_s = *net_s;
      built_t = *net_t;
      workspace->built_s_marks.Clear(g.NumVertices());
      workspace->built_t_marks.Clear(g.NumVertices());
      for (VertexId v : built_s) workspace->built_s_marks.Insert(v);
      for (VertexId v : built_t) workspace->built_t_marks.Insert(v);
    }
    const bool reuse = incremental && network_sufficient;
    if (reuse) {
      // Only the two sink-arc capacity families depend on the guess:
      // retarget them in O(|A|+|B|), keeping the feasible part of the
      // previous flow, instead of rebuilding O(nodes + arcs).
      network.Reparameterize(guess);
      ++result.networks_reused;
    } else {
      network = BuildDdsNetwork(g, built_s, built_t, sqrt_a, guess,
                                &workspace->build_scratch);
      network_valid = true;
      ++result.networks_built;
    }
    result.max_network_nodes =
        std::max<int64_t>(result.max_network_nodes, network.NumNodes());
    if (record_sizes) result.network_sizes.push_back(network.NumNodes());
    if (network.num_pair_edges == 0) {
      // No candidate pair edge in the network: every positive guess over
      // these candidates is infeasible.
      u = guess;
      continue;
    }
    // kAuto: warm Dinic whenever the residual state survives, and for
    // fresh solves push-relabel only on networks big enough for its setup
    // cost to pay off (flow_engine.h's E2/E8-calibrated cutoff).
    const bool use_push_relabel =
        engine == FlowEngine::kPushRelabel ||
        (engine == FlowEngine::kAuto && !reuse &&
         network.net.NumArcs() >= kAutoPushRelabelMinArcs);
    if (use_push_relabel) {
      if (reuse) network.net.ResetFlow();  // push-relabel has no warm start
      push_relabel.Solve(network.source, network.sink);
      result.arcs_scanned += push_relabel.arcs_scanned();
      result.global_relabels += push_relabel.num_global_relabels();
      ++result.flow_solves_push_relabel;
    } else if (reuse) {
      const int64_t augmentations_before = dinic.num_augmentations();
      const int64_t arcs_before = dinic.arcs_scanned();
      dinic.Resolve(network.source, network.sink);
      result.warm_start_augmentations +=
          dinic.num_augmentations() - augmentations_before;
      result.arcs_scanned += dinic.arcs_scanned() - arcs_before;
      ++result.flow_solves_dinic;
    } else {
      dinic.Solve(network.source, network.sink);
      result.arcs_scanned += dinic.arcs_scanned();
      ++result.flow_solves_dinic;
    }
    const std::vector<bool> side =
        SourceSideOfMinCut(network.net, network.source);
    ExtractedPair extracted = ExtractPairFromCut(network, side);

    // Witness-based feasibility: the guess is feasible iff the cut-side
    // pair certifiably exceeds it. This keeps `l` anchored to real pairs
    // regardless of floating-point flow values.
    DdsPair pair{std::move(extracted.s), std::move(extracted.t)};
    double lin = 0;
    if (!pair.Empty()) lin = PairLinearizedDensity(g, pair, sqrt_a);
    if (lin > guess) {
      l = std::max(guess, lin - 1e-15 * std::max(1.0, lin));
      const double true_density = PairDensity(g, pair);
      if (true_density > result.best_density) {
        result.best_density = true_density;
        result.best_pair = std::move(pair);
      }
      if (refine_cores) {
        // Candidates better than l stay inside the refined core from now
        // on; shrink the working sets permanently.
        cur_s = std::move(refined.s);
        cur_t = std::move(refined.t);
      }
    } else {
      u = guess;
    }
  }
  result.h_upper = u;
  result.last_feasible = l;
  return result;
}

template <typename G>
DdsSolution SolveExactDds(const G& g, const ExactOptions& options,
                          SolveControl* control, ProbeWorkspace* workspace) {
  CHECK_GE(options.threads, 1);
  WallTimer timer;
  DdsSolution solution;
  if (g.TotalWeight() == 0) return solution;

  // One pool for the whole solve: the warm start's skyline walk and the
  // ratio-space search share it. threads = 1 spawns nothing; every phase
  // runs its one loop inline on the caller.
  ThreadPool pool(options.threads);

  EngineState<G> state;
  state.g = &g;
  state.options = options;
  state.control = control;
  state.workspace =
      workspace != nullptr ? workspace : &state.owned_workspace;
  state.delta = ExactSearchDelta(g);
  // rho <= sqrt(W * w_max) for every pair: w(E(S,T)) <= W and
  // w(E(S,T)) <= |S||T| w_max, so rho^2 = w^2/(|S||T|) <= W * w_max.
  // Unweighted this is the familiar sqrt(m).
  state.upper_global =
      std::sqrt(static_cast<double>(g.TotalWeight()) *
                static_cast<double>(g.MaxEdgeWeight()));

  if (options.approx_warm_start) {
    const CoreApproxResult approx = CoreApprox(g, &pool);
    if (!approx.Empty()) {
      state.incumbent = DdsPair{approx.core.s, approx.core.t};
      state.incumbent_density = approx.density;
      state.upper_global = std::min(state.upper_global, approx.upper_bound);
    }
  }

  if (options.divide_and_conquer) {
    RunDivideAndConquer(&state, &pool);
  } else {
    RunExhaustive(&state, &pool);
  }

  solution.pair = std::move(state.incumbent);
  solution.density = PairDensity(g, solution.pair);
  solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
  solution.lower_bound = solution.density;
  if (state.interrupted) {
    solution.interrupted = true;
    solution.upper_bound = std::max(state.anytime_upper, solution.density);
  } else {
    solution.upper_bound = solution.density;
  }
  solution.stats = std::move(state.stats);
  solution.stats.seconds = timer.Seconds();
  return solution;
}

template double ExactSearchDelta<Digraph>(const Digraph&);
template double ExactSearchDelta<WeightedDigraph>(const WeightedDigraph&);
template RatioProbeResult ProbeRatio<Digraph>(
    const Digraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const Fraction&, double, double, double,
    bool, bool, double, ProbeWorkspace*, bool, FlowEngine, SolveControl*);
template RatioProbeResult ProbeRatio<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const Fraction&, double, double, double,
    bool, bool, double, ProbeWorkspace*, bool, FlowEngine, SolveControl*);
template DdsSolution SolveExactDds<Digraph>(const Digraph&,
                                            const ExactOptions&,
                                            SolveControl*, ProbeWorkspace*);
template DdsSolution SolveExactDds<WeightedDigraph>(const WeightedDigraph&,
                                                    const ExactOptions&,
                                                    SolveControl*,
                                                    ProbeWorkspace*);

}  // namespace ddsgraph
