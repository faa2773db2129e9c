//===----------------------------------------------------------------------===//
///
/// \file
/// Fill-reducing orderings for sparse factorization. Gaussian elimination
/// on a sparse matrix creates fill-in wherever a pivot row scatters into
/// rows that did not previously share its pattern; permuting the matrix
/// symmetrically (P A P^T) before factoring can shrink that fill by orders
/// of magnitude. The solver blocks use Reverse Cuthill–McKee: breadth-
/// first level sets from a peripheral vertex, reversed — it minimizes
/// bandwidth, ideal for the long chain / ring / grid blocks network models
/// produce. The kernels take an order as a permutation, where an empty
/// one keeps the natural (identity) numbering.
///
/// RCM operates on the *symmetrized* nonzero pattern A + A^T, as is
/// standard for unsymmetric LU with partial pivoting (the pattern of
/// P A P^T is what drives fill regardless of numeric pivoting).
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_LINALG_ORDERING_H
#define MCNK_LINALG_ORDERING_H

#include <cstddef>
#include <vector>

namespace mcnk {
namespace linalg {

/// Undirected adjacency lists over vertices [0, Adj.size()). Neighbor
/// lists need not be sorted; self-loops and duplicates are tolerated.
using AdjacencyList = std::vector<std::vector<std::size_t>>;

/// The symmetrized, deduplicated, self-loop-free closure of \p Adj:
/// u ∈ result[v] iff v ∈ result[u]. The canonical input to the ordering
/// below when the original pattern is directed (as Q-matrix patterns are).
AdjacencyList symmetrizedPattern(const AdjacencyList &Adj);

/// Reverse Cuthill–McKee over \p Adj (must be symmetric — pass through
/// symmetrizedPattern first for directed patterns). Returns a permutation
/// Perm with Perm[k] = the original vertex placed at position k. Each
/// connected component starts from a minimum-degree vertex and is visited
/// breadth-first with neighbors in increasing-degree order; the final
/// sequence is reversed (the "R" in RCM).
std::vector<std::size_t> reverseCuthillMcKee(const AdjacencyList &Adj);

/// Inverse of a permutation: Result[Perm[k]] = k.
std::vector<std::size_t>
inversePermutation(const std::vector<std::size_t> &Perm);

/// True if \p Perm is a permutation of [0, Perm.size()).
bool isPermutation(const std::vector<std::size_t> &Perm);

} // namespace linalg
} // namespace mcnk

#endif // MCNK_LINALG_ORDERING_H
