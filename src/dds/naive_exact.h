#ifndef DDSGRAPH_DDS_NAIVE_EXACT_H_
#define DDSGRAPH_DDS_NAIVE_EXACT_H_

#include "dds/result.h"
#include "graph/digraph.h"

/// \file
/// Exhaustive ground-truth DDS solver for tests.
///
/// Enumerates every non-empty (S, T) pair over bitmask subsets — Θ(4^n)
/// pairs with O(n)-word edge counting — so it is usable only for n <= ~12.
/// Not part of the paper; it exists to certify the flow/LP/core solvers on
/// small random graphs, unweighted and weighted.

namespace ddsgraph {

/// Maximum vertex count accepted by NaiveExact (fatal error beyond it).
inline constexpr uint32_t kNaiveExactMaxVertices = 14;

/// Finds the exact DDS by exhaustive enumeration. Ties are broken towards
/// the lexicographically smallest (S mask, T mask) encountered first.
DdsSolution NaiveExact(const Digraph& g);

/// The weighted objective w(E(S,T)) / sqrt(|S| |T|), same enumeration and
/// tie-break; `pair_edges` carries w(E(S,T)).
DdsSolution NaiveExact(const WeightedDigraph& g);

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_NAIVE_EXACT_H_
