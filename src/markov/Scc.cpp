//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative Tarjan SCC with reverse-topological block numbering (see
/// Scc.h for why pop order is exactly the order the block solver wants).
///
//===----------------------------------------------------------------------===//

#include "markov/Scc.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace mcnk;
using namespace mcnk::markov;

namespace {
constexpr std::size_t Unvisited = std::numeric_limits<std::size_t>::max();
} // namespace

SccDecomposition
markov::computeScc(std::size_t NumVertices,
                   const std::vector<std::vector<std::size_t>> &Adj) {
  assert(Adj.size() == NumVertices && "adjacency size mismatch");
  SccDecomposition Result;
  Result.BlockOf.assign(NumVertices, Unvisited);

  std::vector<std::size_t> Index(NumVertices, Unvisited);
  std::vector<std::size_t> LowLink(NumVertices, 0);
  std::vector<bool> OnStack(NumVertices, false);
  std::vector<std::size_t> SccStack;
  std::size_t NextIndex = 0;

  // Explicit DFS frames (vertex, next edge position) so deep chains do not
  // overflow the call stack — transient graphs routinely hold thousands of
  // states in a single path.
  std::vector<std::pair<std::size_t, std::size_t>> Frames;
  for (std::size_t Root = 0; Root < NumVertices; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Frames.emplace_back(Root, 0);
    Index[Root] = LowLink[Root] = NextIndex++;
    SccStack.push_back(Root);
    OnStack[Root] = true;
    while (!Frames.empty()) {
      auto &[V, EdgePos] = Frames.back();
      if (EdgePos < Adj[V].size()) {
        std::size_t W = Adj[V][EdgePos++];
        assert(W < NumVertices && "edge target out of range");
        if (Index[W] == Unvisited) {
          Frames.emplace_back(W, 0);
          Index[W] = LowLink[W] = NextIndex++;
          SccStack.push_back(W);
          OnStack[W] = true;
        } else if (OnStack[W]) {
          LowLink[V] = std::min(LowLink[V], Index[W]);
        }
        continue;
      }
      // All edges of V explored: pop a component if V is its root, then
      // propagate the lowlink to the DFS parent.
      if (LowLink[V] == Index[V]) {
        std::size_t Block = Result.NumBlocks++;
        Result.Blocks.emplace_back();
        std::size_t Member;
        do {
          Member = SccStack.back();
          SccStack.pop_back();
          OnStack[Member] = false;
          Result.BlockOf[Member] = Block;
          Result.Blocks[Block].push_back(Member);
        } while (Member != V);
        std::sort(Result.Blocks[Block].begin(), Result.Blocks[Block].end());
      }
      std::size_t Child = V;
      Frames.pop_back();
      if (!Frames.empty()) {
        std::size_t Parent = Frames.back().first;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[Child]);
      }
    }
  }
  assert(SccStack.empty() && "Tarjan stack not drained");
  return Result;
}
