#include <cmath>

#include <gtest/gtest.h>

#include "core/core_approx.h"
#include "core/xy_core.h"
#include "core/xy_core_decomposition.h"
#include "dds/core_exact.h"
#include "dds/density.h"
#include "dds/lp_exact.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// Random weighted graph with weights in [1, max_w], via the seeded
// weighted generator (graph/generators.h).
WeightedDigraph RandomWeighted(uint32_t n, int64_t arcs, int64_t max_w,
                               uint64_t seed) {
  WeightOptions options;
  options.max_weight = max_w;
  return UniformWeightedDigraph(n, arcs, seed, options);
}

TEST(WeightedDensityTest, MatchesManualComputation) {
  const WeightedDigraph g =
      WeightedDigraph::FromEdges(3, {{0, 1, 3}, {0, 2, 5}, {1, 2, 2}});
  EXPECT_EQ(PairWeight(g, {0}, {1, 2}), 8);
  EXPECT_NEAR(PairDensity(g, {0}, {1, 2}), 8.0 / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(PairDensity(g, {}, {1}), 0.0);
}

TEST(WeightedXyCoreTest, UnitWeightsMatchUnweightedCore) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Digraph base = UniformDigraph(30, 140, seed);
    const WeightedDigraph g = WeightedDigraph::FromDigraph(base);
    for (int64_t x = 0; x <= 4; ++x) {
      for (int64_t y = 0; y <= 4; ++y) {
        const XyCore weighted = ComputeXyCore(g, x, y);
        const XyCore plain = ComputeXyCore(base, x, y);
        EXPECT_EQ(weighted.s, plain.s) << "x=" << x << " y=" << y;
        EXPECT_EQ(weighted.t, plain.t) << "x=" << x << " y=" << y;
      }
    }
  }
}

TEST(WeightedXyCoreTest, WeightsActAsMultiplicities) {
  // One edge of weight 5: S side has weighted out-degree 5.
  const WeightedDigraph g = WeightedDigraph::FromEdges(2, {{0, 1, 5}});
  EXPECT_FALSE(ComputeXyCore(g, 5, 5).Empty());
  EXPECT_TRUE(ComputeXyCore(g, 6, 1).Empty());
  EXPECT_TRUE(ComputeXyCore(g, 1, 6).Empty());
  EXPECT_TRUE(IsValidXyCore(g, ComputeXyCore(g, 5, 5), 5, 5));
}

TEST(WeightedMaxYForXTest, UnitWeightsMatchUnweighted) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const Digraph base = UniformDigraph(40, 220, seed);
    const WeightedDigraph g = WeightedDigraph::FromDigraph(base);
    for (int64_t x = 1; x <= 6; ++x) {
      EXPECT_EQ(MaxYForX(g, x), MaxYForX(base, x))
          << "seed " << seed << " x " << x;
    }
  }
}

TEST(WeightedMaxYForXTest, MatchesBruteForceWithWeights) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const WeightedDigraph g = RandomWeighted(20, 70, 4, seed);
    for (int64_t x = 1; x <= 8; ++x) {
      int64_t brute = 0;
      for (int64_t y = 1; y <= g.MaxWeightedInDegree(); ++y) {
        if (ComputeXyCore(g, x, y).Empty()) break;
        brute = y;
      }
      EXPECT_EQ(MaxYForX(g, x), brute)
          << "seed " << seed << " x " << x;
    }
  }
}

TEST(WeightedCoreApproxTest, UnitWeightsMatchUnweighted) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Digraph base = RmatDigraph(6, 300, seed);
    const WeightedDigraph g = WeightedDigraph::FromDigraph(base);
    const CoreApproxResult weighted = CoreApprox(g);
    const CoreApproxResult plain = CoreApprox(base);
    EXPECT_EQ(weighted.best_x * weighted.best_y,
              plain.best_x * plain.best_y)
        << "seed " << seed;
    EXPECT_NEAR(weighted.density, plain.density, 1e-12);
  }
}

TEST(WeightedNaiveExactTest, SimpleWeightedStar) {
  // 0 -> 1 (w 9), 0 -> 2 (w 1): best is ({0},{1}) with rho 9, beating
  // ({0},{1,2}) with 10/sqrt(2) ~ 7.07.
  const WeightedDigraph g =
      WeightedDigraph::FromEdges(3, {{0, 1, 9}, {0, 2, 1}});
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, 9.0, 1e-12);
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{1}));
}

TEST(WeightedNaiveExactTest, UnitWeightsMatchUnweighted) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Digraph base = UniformDigraph(7, 20, seed);
    const WeightedDigraph g = WeightedDigraph::FromDigraph(base);
    EXPECT_NEAR(NaiveExact(g).density, NaiveExact(base).density,
                1e-12)
        << "seed " << seed;
  }
}

// The headline cross-checks for the weighted extension.
class WeightedExactTest : public ::testing::TestWithParam<int> {};

TEST_P(WeightedExactTest, CoreExactMatchesNaive) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const WeightedDigraph g = RandomWeighted(8, 26, 5, seed);
  if (g.TotalWeight() == 0) return;
  const DdsSolution naive = NaiveExact(g);
  const DdsSolution core = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(core.density, naive.density, 1e-6) << "seed " << seed;
  EXPECT_NEAR(core.density, PairDensity(g, core.pair.s, core.pair.t),
              1e-12);
}

TEST_P(WeightedExactTest, ApproxGuaranteeHolds) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const WeightedDigraph g = RandomWeighted(9, 30, 6, seed + 100);
  if (g.TotalWeight() == 0) return;
  const DdsSolution naive = NaiveExact(g);
  const CoreApproxResult approx = CoreApprox(g);
  ASSERT_FALSE(approx.Empty());
  EXPECT_GE(approx.density * 2.0 + 1e-9, naive.density) << "seed " << seed;
  EXPECT_LE(naive.density, approx.upper_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedExactTest, ::testing::Range(0, 20));

// The acceptance bar of the weight-policy redesign: on an all-weights-1
// graph the weighted instantiation of the exact engine runs the *same
// code* on the same numbers, so the whole solve — pair, density, bounds
// and every trajectory counter — is bit-identical to the unweighted
// instantiation, across option presets.
TEST(WeightedExactTest, UnitWeightsBitIdenticalToUnweightedEngine) {
  std::vector<ExactOptions> presets;
  presets.push_back(ExactOptions{});  // CoreExact
  ExactOptions dc;
  dc.core_pruning = false;
  dc.refine_cores_in_probe = false;
  dc.approx_warm_start = false;
  presets.push_back(dc);  // DcExact
  ExactOptions fresh;
  fresh.incremental_probe = false;
  fresh.record_network_sizes = true;
  presets.push_back(fresh);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Digraph base = UniformDigraph(30, 150, seed);
    const WeightedDigraph g = WeightedDigraph::FromDigraph(base);
    for (size_t p = 0; p < presets.size(); ++p) {
      const DdsSolution weighted = SolveExactDds(g, presets[p]);
      const DdsSolution plain = SolveExactDds(base, presets[p]);
      EXPECT_EQ(weighted.density, plain.density)
          << "seed " << seed << " preset " << p;
      EXPECT_EQ(weighted.pair.s, plain.pair.s);
      EXPECT_EQ(weighted.pair.t, plain.pair.t);
      EXPECT_EQ(weighted.pair_edges, plain.pair_edges);
      EXPECT_EQ(weighted.lower_bound, plain.lower_bound);
      EXPECT_EQ(weighted.upper_bound, plain.upper_bound);
      EXPECT_EQ(weighted.stats.ratios_probed, plain.stats.ratios_probed);
      EXPECT_EQ(weighted.stats.binary_search_iters,
                plain.stats.binary_search_iters);
      EXPECT_EQ(weighted.stats.flow_networks_built,
                plain.stats.flow_networks_built);
      EXPECT_EQ(weighted.stats.flow_networks_reused,
                plain.stats.flow_networks_reused);
      EXPECT_EQ(weighted.stats.intervals_pruned,
                plain.stats.intervals_pruned);
      EXPECT_EQ(weighted.stats.network_sizes, plain.stats.network_sizes);
    }
  }
}

// Weighted solves honor every ExactOptions flag now; all 32 combinations
// of the five booleans must agree with the exhaustive certifier. (The
// non-D&C combinations enumerate all O(n^2) ratios — n is kept tiny.)
TEST(WeightedExactTest, AllExactOptionCombinationsAgreeWithNaive) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const WeightedDigraph g = RandomWeighted(8, 26, 5, seed + 500);
    if (g.TotalWeight() == 0) continue;
    const DdsSolution naive = NaiveExact(g);
    for (int mask = 0; mask < 32; ++mask) {
      ExactOptions options;
      options.divide_and_conquer = (mask & 1) != 0;
      options.core_pruning = (mask & 2) != 0;
      options.refine_cores_in_probe = (mask & 4) != 0;
      options.approx_warm_start = (mask & 8) != 0;
      options.incremental_probe = (mask & 16) != 0;
      const DdsSolution sol = SolveExactDds(g, options);
      EXPECT_NEAR(sol.density, naive.density, 1e-6)
          << "seed " << seed << " mask " << mask;
      EXPECT_NEAR(sol.density, PairDensity(g, sol.pair.s, sol.pair.t),
                  1e-12)
          << "seed " << seed << " mask " << mask;
    }
  }
}

TEST(WeightedExactTest, ScalingWeightsScalesDensityLinearly) {
  const WeightedDigraph g = RandomWeighted(10, 40, 3, 99);
  std::vector<WeightedEdge> scaled = g.EdgeList();
  for (WeightedEdge& e : scaled) e.weight *= 7;
  const WeightedDigraph g7 =
      WeightedDigraph::FromEdges(g.NumVertices(), std::move(scaled));
  const DdsSolution a = SolveExactDds(g, ExactOptions{});
  const DdsSolution b = SolveExactDds(g7, ExactOptions{});
  EXPECT_NEAR(b.density, 7.0 * a.density, 1e-6);
}

// The LP baseline is weight-generic too (weights are objective
// coefficients): it must certify the weighted flow engine independently.
TEST(WeightedExactTest, LpExactMatchesNaiveOnWeightedGraphs) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const WeightedDigraph g = RandomWeighted(7, 20, 5, seed + 300);
    if (g.TotalWeight() == 0) continue;
    const DdsSolution naive = NaiveExact(g);
    const DdsSolution lp = LpExact(g);
    EXPECT_NEAR(lp.density, naive.density, 1e-6) << "seed " << seed;
    // LP duality: the best LP value upper-bounds (and here matches) the
    // optimum under the weighted objective.
    EXPECT_GE(lp.upper_bound + 1e-6, naive.density) << "seed " << seed;
    EXPECT_NEAR(lp.upper_bound, naive.density, 1e-4) << "seed " << seed;
  }
}

TEST(WeightedExactTest, HeavyEdgeDominatesManyLightOnes) {
  // A 3x3 unit block (rho 3) against a single edge of weight 10.
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 3; v < 6; ++v) edges.push_back({u, v, 1});
  }
  edges.push_back({6, 7, 10});
  const WeightedDigraph g = WeightedDigraph::FromEdges(8, edges);
  const DdsSolution sol = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(sol.density, 10.0, 1e-6);
  EXPECT_EQ(sol.pair.s, (std::vector<VertexId>{6}));
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{7}));
}

}  // namespace
}  // namespace ddsgraph
