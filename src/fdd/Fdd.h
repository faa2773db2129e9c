//===----------------------------------------------------------------------===//
///
/// \file
/// Probabilistic Forwarding Decision Diagrams (paper §5.1): hash-consed,
/// ordered decision diagrams whose interior nodes test `field = value` and
/// whose leaves hold exact-rational distributions over actions. An FDD
/// denotes a function Pk -> D(Pk + ∅), i.e. a (sub)stochastic matrix over
/// the single-packet state space (§5's pragmatic restriction).
///
/// Node invariants (which make FDDs canonical, so program equivalence is
/// reference equality — Corollary 3.2 made executable):
///  - Tests are ordered lexicographically by (field, value); a node's
///    true-subtree never re-tests its field, and its false-subtree's root
///    test is strictly larger.
///  - No node has identical true/false children.
///  - Leaves and interior nodes are interned (structural sharing).
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_FDD_H
#define MCNK_FDD_FDD_H

#include "fdd/Action.h"
#include "fdd/FlatTable.h"
#include "markov/Absorbing.h"
#include "packet/Packet.h"
#include "support/Hashing.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace mcnk {
namespace fdd {

/// Handle to an interned FDD node (tagged index into the manager's pools;
/// low bit set = leaf). Handles are only meaningful relative to their
/// FddManager.
using FddRef = uint32_t;

inline bool isLeafRef(FddRef Ref) { return Ref & 1; }

/// Statistics describing the last solved loop (benchmark diagnostics).
/// The class counts are reported per solve block (one per strongly
/// connected class of the kept transient states, docs/ARCHITECTURE.md
/// S13) and always sum to the totals: Σ Blocks[i].NumStates == NumSolved
/// and Σ Blocks[i].NumQEntries == NumSolvedQ.
struct LoopSolveStats {
  std::size_t NumStates = 0;    ///< Symbolic-packet product size.
  std::size_t NumTransient = 0; ///< Guard-true classes (matrix dimension).
  std::size_t NumAbsorbing = 0; ///< Distinct exit classes.
  std::size_t NumQEntries = 0;  ///< Sparse entries of Q.
  std::size_t NumSolved = 0;    ///< Transient classes kept after pruning.
  std::size_t NumSolvedQ = 0;   ///< Q entries within the kept subgraph.
  std::size_t NumBlocks = 0;    ///< Strongly connected solve blocks.
  std::size_t MaxBlockSize = 0; ///< Largest block's state count.
  std::size_t EliminationOps = 0; ///< Multiply-subtract operations.
  std::size_t FillIn = 0;         ///< Entries created by elimination.
  /// The exact engine's GF(p) blocks only (zero elsewhere; see
  /// docs/ARCHITECTURE.md S14): accepted and unlucky primes summed over
  /// the blocks, the widest block reconstruction's prime-product bit
  /// length, and the number of blocks that fell back to Rational.
  std::size_t NumPrimes = 0;
  std::size_t RetriedPrimes = 0;
  std::size_t ReconstructionBits = 0;
  std::size_t ModularFallbacks = 0;
  std::vector<markov::BlockMetrics> Blocks; ///< Per-block breakdown.
};

/// Outcome of one FddManager::gc() mark-sweep pass (diagnostics).
struct GcStats {
  std::size_t LiveLeaves = 0;
  std::size_t FreedLeaves = 0;
  std::size_t LiveInners = 0;
  std::size_t FreedInners = 0;
  /// Action and choice-weight pool entries no surviving cache entry uses.
  std::size_t FreedActions = 0;
  std::size_t FreedWeights = 0;
  /// Operation-cache entries rebuilt onto the compacted pools vs dropped
  /// because an operand or result died.
  std::size_t KeptCacheEntries = 0;
  std::size_t DroppedCacheEntries = 0;
};

/// Owns all FDD nodes and implements the compiler's operations. Not
/// thread-safe: a compile runs in one manager, and diagrams move between
/// managers via Export/Import.
class FddManager {
public:
  explicit FddManager(
      markov::SolverKind Solver = markov::SolverKind::Exact);

  markov::SolverKind solverKind() const { return Solver; }

  /// The exact engine's test-only kernel knobs (markov::SolverStructure)
  /// used by subsequent solveLoop calls. Loops already in the loop cache
  /// are returned as cached.
  void setSolverStructure(const markov::SolverStructure &S) {
    Structure = S;
  }
  const markov::SolverStructure &solverStructure() const { return Structure; }

  // --- Node construction and inspection ---------------------------------
  /// Interns \p Dist (moved into the pool when it is new).
  FddRef leaf(ActionDist Dist);
  /// Interning constructor; collapses Hi == Lo and checks ordering
  /// invariants in assert builds.
  FddRef inner(FieldId Field, FieldValue Value, FddRef Hi, FddRef Lo);

  FddRef identityLeaf() const { return IdentityLeaf; }
  FddRef dropLeaf() const { return DropLeaf; }

  const ActionDist &leafDist(FddRef Leaf) const;

  struct InnerNode {
    FieldId Field;
    FieldValue Value;
    FddRef Hi;
    FddRef Lo;
    bool operator==(const InnerNode &R) const {
      return Field == R.Field && Value == R.Value && Hi == R.Hi && Lo == R.Lo;
    }
  };
  const InnerNode &innerNode(FddRef Ref) const;

  // --- Primitive programs ------------------------------------------------
  /// f = n as an FDD (identity when the test passes, drop otherwise).
  FddRef test(FieldId Field, FieldValue Value);
  /// f := n as an FDD (a single modification leaf).
  FddRef assign(FieldId Field, FieldValue Value);

  // --- Compiler operations ------------------------------------------------
  /// Sequential composition p ; q.
  FddRef seq(FddRef P, FddRef Q);
  /// Negation of a predicate FDD (leaves swap pass/drop).
  FddRef negate(FddRef Pred);
  /// Disjunction of two predicate FDDs (t & u on predicates).
  FddRef disjoin(FddRef PredA, FddRef PredB);
  /// Probabilistic choice p ⊕_r q.
  FddRef choice(const Rational &R, FddRef P, FddRef Q);
  /// Guarded branching: if Guard then Then else Else.
  FddRef branch(FddRef Guard, FddRef Then, FddRef Else);
  /// Closed-form while loop (paper §4/§5): builds the absorbing chain
  /// over symbolic packets via dynamic domain reduction, solves
  /// A = (I-Q)^{-1} R with the configured solver, and converts the
  /// absorption matrix back into an FDD.
  FddRef solveLoop(FddRef Guard, FddRef Body);

  /// True if every leaf reachable from \p Ref is dirac pass or dirac drop.
  bool isPredicateFdd(FddRef Ref) const;

  // --- Concrete evaluation -------------------------------------------------
  /// Follows tests for a concrete packet down to the leaf distribution.
  const ActionDist &evalToLeaf(FddRef Ref, const Packet &P) const;
  /// Full output distribution for a concrete input packet; the ∅ outcome
  /// is reported under `Dropped`.
  struct OutputDist {
    std::map<Packet, Rational> Outputs;
    Rational Dropped;
  };
  OutputDist outputDistribution(FddRef Ref, const Packet &P) const;

  // --- Lifecycle -----------------------------------------------------------
  /// Returns the manager to its freshly constructed state: every pool and
  /// operation cache is dropped and the identity/drop leaves re-interned.
  /// All previously issued FddRefs are invalidated.
  void reset();

  /// Mark-sweep compaction: every node unreachable from \p Roots (plus the
  /// identity/drop leaves) is freed, the pools are compacted in place, and
  /// each `*Root` is remapped to its new ref. Operation-cache entries
  /// whose operands and result all survive are rebuilt onto the compacted
  /// refs (so warm state is kept, not thrown away); the rest are dropped.
  /// Any FddRef not routed through \p Roots is invalidated.
  GcStats gc(const std::vector<FddRef *> &Roots);

  // --- Diagnostics ---------------------------------------------------------
  std::size_t numInnerNodes() const { return Inners.size(); }
  std::size_t numLeaves() const { return Leaves.size(); }
  /// Reachable node count of one diagram (DAG size).
  std::size_t diagramSize(FddRef Ref) const;
  const LoopSolveStats &lastLoopStats() const { return LastLoop; }

  /// Collected per-field values mentioned in tests/modifications under
  /// \p Ref — the seed of dynamic domain reduction (§5.1). Exposed for
  /// tests and the matrix-conversion benches.
  std::map<FieldId, std::vector<FieldValue>> collectDomain(FddRef Ref) const;

  // --- Shared cofactor helpers (also used by queries) ----------------------
  /// Specializes \p Ref under the assumption Field == Value. Only valid
  /// when \p Ref's root test is not smaller than (Field, Value).
  FddRef cofactorTrue(FddRef Ref, FieldId Field, FieldValue Value) const;
  /// Specializes \p Ref under the assumption Field != Value.
  FddRef cofactorFalse(FddRef Ref, FieldId Field, FieldValue Value) const;
  /// The root test of \p Ref, or (max, max) for leaves.
  std::pair<FieldId, FieldValue> rootTest(FddRef Ref) const;
  /// The global test order: lexicographic on (field, value), so a leaf's
  /// rootTest orders after every real test. Every Shannon expansion
  /// splits on the least root test of its operands under this order.
  static bool testLess(std::pair<FieldId, FieldValue> A,
                       std::pair<FieldId, FieldValue> B) {
    return A.first != B.first ? A.first < B.first : A.second < B.second;
  }

private:
  uint32_t internAction(const Action &A);
  uint32_t internWeight(const Rational &R);
  /// a ▷ q: runs q on the output of the single action a.
  FddRef seqAction(uint32_t ActionId, FddRef Q);
  /// Σ wᵢ·Refᵢ over the terms (weights positive and summing to one; a
  /// caller's dropped mass is a term on the drop leaf). Terms with equal
  /// refs merge first, their weights adding. The distinct refs are then
  /// one operand tuple of apply(): a simultaneous Shannon expansion over
  /// all of them, whose all-leaf tuples build Σ wᵢ·pᵢⱼ per action j
  /// straight from the original weights. SumMemo is emptied per call,
  /// since the weights are fixed only within one; seq's cache keeps the
  /// result.
  FddRef weightedSum(std::vector<std::pair<Rational, FddRef>> Terms);
  /// The Shannon-expansion engine behind negate, disjoin, choice, branch
  /// and weightedSum (defined in Fdd.cpp), over a tuple of \p Width
  /// operands. \p Terminal maps a tuple to its unmemoized result or
  /// nullopt; \p Key gives its \p Memo key; \p Combine builds the result
  /// of an all-leaf tuple. Each callback gets the tuple as a pointer to
  /// its \p Width refs.
  template <typename MemoT, typename TerminalFn, typename KeyFn,
            typename CombineFn>
  FddRef apply(const FddRef *Operands, std::size_t Width, MemoT &Memo,
               TerminalFn Terminal, KeyFn Key, CombineFn Combine);

  markov::SolverKind Solver;
  markov::SolverStructure Structure;

  // Interning pools, each indexed by a flat hash set over the pool.
  std::vector<ActionDist> Leaves;
  IndexSet LeafTable;
  std::vector<InnerNode> Inners;
  IndexSet InnerTable;
  std::vector<Action> Actions;
  IndexSet ActionTable;
  /// Choice weights: choice() interns its weight once per call, so the
  /// choice cache keys on a weight id instead of a Rational.
  std::vector<Rational> Weights;
  IndexSet WeightTable;

  FddRef IdentityLeaf = 0;
  FddRef DropLeaf = 0;

  // Operation caches, keyed on operand refs (and action / weight ids).
  MemoTable<2> SeqCache;       ///< (P, Q)
  MemoTable<2> DisjoinCache;   ///< (min, max) of the two predicates
  MemoTable<1> NegateCache;    ///< (Pred)
  MemoTable<3> ChoiceCache;    ///< (weight id, P, Q)
  MemoTable<3> BranchCache;    ///< (Guard, Then, Else)
  MemoTable<2> SeqActionCache; ///< (action id, Q)
  /// Loop results carry their solve statistics so a cache hit can refresh
  /// lastLoopStats() exactly as the original solve did.
  struct LoopEntry {
    FddRef Result;
    LoopSolveStats Stats;
  };
  std::unordered_map<std::pair<FddRef, FddRef>, LoopEntry, PairHash>
      LoopCache;

  /// apply()'s frame stack, operand arena and value stack. apply() never
  /// re-enters itself, so they are empty between calls and keep their
  /// capacity from one call to the next.
  struct ApplyFrame {
    FieldId Field;
    FieldValue Value;
    bool Expanded;
  };
  std::vector<ApplyFrame> ApplyStack;
  std::vector<FddRef> ApplyArena;
  std::vector<FddRef> ApplyValues;
  /// weightedSum's tuple memo, reset per call (FlatTable.h).
  TupleMemo SumMemo;

  LoopSolveStats LastLoop;
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_FDD_H
