//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly connected components of the transient-state graph. The block
/// solver (docs/ARCHITECTURE.md S13) decomposes the Q matrix into
/// its communicating classes: absorption out of a class depends only on
/// classes *downstream* of it in the condensation DAG, so each class is a
/// solve block that needs only its successors' solutions. Tarjan's
/// algorithm pops components in reverse topological order, which we exploit
/// directly: block ids are assigned in pop order, so every condensation
/// edge u -> v satisfies BlockOf[u] > BlockOf[v], and the block solver,
/// which visits blocks serially in increasing id order, solves all
/// successors of a block before the block itself.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_MARKOV_SCC_H
#define MCNK_MARKOV_SCC_H

#include <cstddef>
#include <vector>

namespace mcnk {
namespace markov {

/// The condensation of a directed graph into strongly connected components.
/// Block ids are a reverse topological order of the condensation DAG: for
/// every edge u -> v of the input with BlockOf[u] != BlockOf[v],
/// BlockOf[u] > BlockOf[v].
struct SccDecomposition {
  std::size_t NumBlocks = 0;
  /// Vertex -> id of its component.
  std::vector<std::size_t> BlockOf;
  /// Component id -> member vertices (ascending).
  std::vector<std::vector<std::size_t>> Blocks;
};

/// Tarjan's algorithm (iterative) over vertices [0, NumVertices) with
/// forward adjacency \p Adj. Self-loops and duplicate edges are tolerated.
SccDecomposition
computeScc(std::size_t NumVertices,
           const std::vector<std::vector<std::size_t>> &Adj);

} // namespace markov
} // namespace mcnk

#endif // MCNK_MARKOV_SCC_H
