//===----------------------------------------------------------------------===//
///
/// \file
/// The Reverse Cuthill–McKee ordering over symmetric sparsity patterns (see Ordering.h for the contract).
///
//===----------------------------------------------------------------------===//

#include "linalg/Ordering.h"

#include <algorithm>
#include <cassert>

using namespace mcnk;
using namespace mcnk::linalg;

AdjacencyList linalg::symmetrizedPattern(const AdjacencyList &Adj) {
  std::size_t N = Adj.size();
  AdjacencyList Sym(N);
  for (std::size_t U = 0; U < N; ++U)
    for (std::size_t V : Adj[U]) {
      assert(V < N && "adjacency index out of range");
      if (V == U)
        continue;
      Sym[U].push_back(V);
      Sym[V].push_back(U);
    }
  for (std::vector<std::size_t> &Neighbors : Sym) {
    std::sort(Neighbors.begin(), Neighbors.end());
    Neighbors.erase(std::unique(Neighbors.begin(), Neighbors.end()),
                    Neighbors.end());
  }
  return Sym;
}

std::vector<std::size_t>
linalg::reverseCuthillMcKee(const AdjacencyList &Adj) {
  std::size_t N = Adj.size();
  std::vector<std::size_t> Order;
  Order.reserve(N);
  std::vector<bool> Visited(N, false);

  // Component seeds in increasing degree (then index) order, so every
  // component starts from a pseudo-peripheral low-degree vertex.
  std::vector<std::size_t> Seeds(N);
  for (std::size_t I = 0; I < N; ++I)
    Seeds[I] = I;
  std::stable_sort(Seeds.begin(), Seeds.end(),
                   [&](std::size_t A, std::size_t B) {
                     return Adj[A].size() < Adj[B].size();
                   });

  std::vector<std::size_t> Neighbors;
  for (std::size_t Seed : Seeds) {
    if (Visited[Seed])
      continue;
    // BFS with neighbor expansion in increasing-degree order.
    std::size_t Head = Order.size();
    Visited[Seed] = true;
    Order.push_back(Seed);
    while (Head < Order.size()) {
      std::size_t U = Order[Head++];
      Neighbors.clear();
      for (std::size_t V : Adj[U])
        if (!Visited[V])
          Neighbors.push_back(V);
      // Ties by index: on sorted adjacency lists this is the stable order,
      // without stable_sort's per-call scratch allocation.
      std::sort(Neighbors.begin(), Neighbors.end(),
                [&](std::size_t A, std::size_t B) {
                  return Adj[A].size() != Adj[B].size()
                             ? Adj[A].size() < Adj[B].size()
                             : A < B;
                });
      for (std::size_t V : Neighbors) {
        Visited[V] = true;
        Order.push_back(V);
      }
    }
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

std::vector<std::size_t>
linalg::inversePermutation(const std::vector<std::size_t> &Perm) {
  std::vector<std::size_t> Inverse(Perm.size());
  for (std::size_t K = 0; K < Perm.size(); ++K) {
    assert(Perm[K] < Perm.size() && "permutation entry out of range");
    Inverse[Perm[K]] = K;
  }
  return Inverse;
}

bool linalg::isPermutation(const std::vector<std::size_t> &Perm) {
  std::vector<bool> Seen(Perm.size(), false);
  for (std::size_t V : Perm) {
    if (V >= Perm.size() || Seen[V])
      return false;
    Seen[V] = true;
  }
  return true;
}
