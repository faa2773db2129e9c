//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-cache + manager-lifecycle suite (docs/ARCHITECTURE.md S12):
/// cache-hit compiles must be reference-equal to cold compiles under every
/// solver kind, serial and parallel; caches shared across verifiers and
/// keyed per solver; LRU eviction under a tiny capacity must stay correct;
/// FddManager::gc() must compact the pools without changing any query
/// answer on live roots, and reset() must return the manager to its
/// freshly constructed state. Also home of the regression test for the
/// solveLoop cache-hit path refreshing lastLoopStats(), and of the property
/// tests of the flat intern and memo tables behind the manager.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Hash.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "fdd/FlatTable.h"
#include "routing/Routing.h"
#include "support/Prng.h"
#include "topology/Topology.h"

#include <gtest/gtest.h>

#include <unordered_map>

using namespace mcnk;

namespace {

/// The chain-of-diamonds model — big enough (dozens of AST nodes, one
/// while loop) that every composite boundary clears the cache's size gate.
routing::NetworkModel chainModel(unsigned K, ast::Context &Ctx,
                                 Rational PFail = Rational(1, 10)) {
  topology::ChainLayout L;
  topology::makeChain(K, L);
  return routing::buildChainModel(L, PFail, Ctx);
}

/// Reference-equality across managers: \p Ref (owned by \p Have) denotes
/// the same canonical diagram as \p Expected (owned by \p Want) iff
/// importing the latter into the former's manager lands on \p Ref.
bool sameDiagram(analysis::Verifier &Have, fdd::FddRef Ref,
                 analysis::Verifier &Want, fdd::FddRef Expected) {
  return fdd::importFdd(Have.manager(),
                        fdd::exportFdd(Want.manager(), Expected)) == Ref;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compile cache
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, HitIsReferenceEqualAcrossSolversAndBackends) {
  const markov::SolverKind Kinds[] = {markov::SolverKind::Exact,
                                      markov::SolverKind::Direct,
                                      markov::SolverKind::Iterative};
  for (markov::SolverKind Kind : Kinds) {
    ast::Context Ctx;
    routing::NetworkModel M = chainModel(2, Ctx);

    analysis::Verifier Cached(Kind);
    Cached.enableCompileCache();
    fdd::FddRef Cold = Cached.compile(M.Program);
    fdd::CompileCache::Stats AfterCold = Cached.cacheStats();
    EXPECT_GT(AfterCold.Insertions, 0u);

    // Hit path: the same program again.
    EXPECT_EQ(Cached.compile(M.Program), Cold);
    fdd::CompileCache::Stats AfterHit = Cached.cacheStats();
    EXPECT_GT(AfterHit.Hits, AfterCold.Hits);

    // The cached diagram is the one an uncached engine produces.
    analysis::Verifier Uncached(Kind);
    fdd::FddRef Reference = Uncached.compile(M.Program);
    EXPECT_TRUE(sameDiagram(Cached, Cold, Uncached, Reference))
        << "solver kind " << static_cast<int>(Kind);

    // And it answers queries identically.
    Packet In = M.ingressPacket(0, Ctx);
    EXPECT_EQ(Cached.deliveryProbability(Cold, In),
              Uncached.deliveryProbability(Reference, In));
  }
}

/// Ring shortest-path model with iid per-link failures — the family whose
/// members share the (large) topology `case` sub-program.
routing::NetworkModel ringModel(unsigned N, const Rational &PFail,
                                ast::Context &Ctx) {
  topology::RingLayout L;
  topology::Topology T = topology::makeRing(N, L);
  routing::ModelOptions O;
  O.Failures = routing::FailureModel::iid(PFail);
  return routing::buildShortestPathModel(T, /*Dst=*/1, O, Ctx);
}

TEST(CompileCacheTest, SharedAcrossVerifiersAndFamilies) {
  fdd::CompileCache Shared;
  ast::Context Ctx1;
  routing::NetworkModel M1 = ringModel(6, Rational(1, 20), Ctx1);
  analysis::Verifier V1;
  V1.setCompileCache(&Shared);
  fdd::FddRef R1 = V1.compile(M1.Program);
  fdd::CompileCache::Stats AfterFirst = Shared.stats();
  EXPECT_GT(AfterFirst.Insertions, 0u);

  // A second verifier building the same model in a fresh context: the
  // fingerprints depend only on structure and numeric field ids, so the
  // whole compile is served from the shared cache.
  ast::Context Ctx2;
  routing::NetworkModel M2 = ringModel(6, Rational(1, 20), Ctx2);
  analysis::Verifier V2;
  V2.setCompileCache(&Shared);
  fdd::FddRef R2 = V2.compile(M2.Program);
  EXPECT_GT(Shared.stats().Hits, AfterFirst.Hits);
  EXPECT_TRUE(sameDiagram(V2, R2, V1, R1));

  // A family member differing only in the failure parameter recompiles
  // only the sub-programs that changed: the routing arms resample with a
  // new probability (fresh insertions), but the failure-independent
  // topology `case` is served from the cache (real hits).
  ast::Context Ctx3;
  routing::NetworkModel M3 = ringModel(6, Rational(1, 10), Ctx3);
  analysis::Verifier V3;
  V3.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef R3 = V3.compile(M3.Program);
  fdd::CompileCache::Stats After = Shared.stats();
  EXPECT_GT(After.Hits, Before.Hits) << "no sharing across the family";
  EXPECT_GT(After.Insertions, Before.Insertions);

  analysis::Verifier Uncached;
  EXPECT_TRUE(sameDiagram(V3, R3, Uncached, Uncached.compile(M3.Program)));
}

TEST(CompileCacheTest, KeyedBySolverKind) {
  fdd::CompileCache Shared;
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);

  analysis::Verifier Exact(markov::SolverKind::Exact);
  Exact.setCompileCache(&Shared);
  fdd::FddRef E = Exact.compile(M.Program);

  // The Direct engine must not be served the Exact engine's loop
  // solutions: same fingerprints, different solver key.
  analysis::Verifier Direct(markov::SolverKind::Direct);
  Direct.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef D = Direct.compile(M.Program);
  EXPECT_GT(Shared.stats().Misses, Before.Misses);

  analysis::Verifier UncachedDirect(markov::SolverKind::Direct);
  EXPECT_TRUE(sameDiagram(Direct, D, UncachedDirect,
                          UncachedDirect.compile(M.Program)));
  // Exact refs stay exact.
  analysis::Verifier UncachedExact(markov::SolverKind::Exact);
  EXPECT_TRUE(sameDiagram(Exact, E, UncachedExact,
                          UncachedExact.compile(M.Program)));
}

TEST(CompileCacheTest, ModularKindKeyedAndHitEqualsCold) {
  // The S14 regression: ModularExact gets its own cache key (an Exact
  // entry must not satisfy a modular lookup, even though both engines are
  // exact), and the modular cached-hit compile is reference-equal to the
  // cold one and to both uncached exact engines.
  fdd::CompileCache Shared;
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);

  analysis::Verifier Exact(markov::SolverKind::Exact);
  Exact.setCompileCache(&Shared);
  fdd::FddRef E = Exact.compile(M.Program);

  analysis::Verifier Modular(markov::SolverKind::ModularExact);
  Modular.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef Cold = Modular.compile(M.Program);
  fdd::CompileCache::Stats AfterCold = Shared.stats();
  EXPECT_GT(AfterCold.Misses, Before.Misses) << "served a cross-kind entry";
  EXPECT_GT(AfterCold.Insertions, Before.Insertions);

  EXPECT_EQ(Modular.compile(M.Program), Cold);
  EXPECT_GT(Shared.stats().Hits, AfterCold.Hits);

  analysis::Verifier UncachedModular(markov::SolverKind::ModularExact);
  EXPECT_TRUE(sameDiagram(Modular, Cold, UncachedModular,
                          UncachedModular.compile(M.Program)));
  // Both exact engines agree on the diagram itself.
  EXPECT_TRUE(sameDiagram(Modular, Cold, Exact, E));

  Packet In = M.ingressPacket(0, Ctx);
  EXPECT_EQ(Modular.deliveryProbability(Cold, In),
            Exact.deliveryProbability(E, In));
}

TEST(CompileCacheTest, EvictionUnderTinyCapacityStaysCorrect) {
  fdd::CompileCache Tiny(/*Capacity=*/2);
  const Rational PFails[] = {Rational(1, 10), Rational(1, 7),
                             Rational(1, 5), Rational(1, 3)};
  // Round-robin over a family bigger than the capacity, twice, so every
  // compile churns the LRU list; every result must still match the
  // uncached engine.
  for (int Round = 0; Round < 2; ++Round) {
    for (const Rational &PFail : PFails) {
      ast::Context Ctx;
      routing::NetworkModel M = chainModel(2, Ctx, PFail);
      analysis::Verifier Cached;
      Cached.setCompileCache(&Tiny);
      fdd::FddRef R = Cached.compile(M.Program);
      EXPECT_EQ(Cached.compile(M.Program), R);
      analysis::Verifier Uncached;
      EXPECT_TRUE(
          sameDiagram(Cached, R, Uncached, Uncached.compile(M.Program)));
    }
  }
  fdd::CompileCache::Stats S = Tiny.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Entries, 2u);
}

TEST(CompileCacheTest, OwnedCacheLifecycleOnVerifier) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(1, Ctx);
  analysis::Verifier V;
  EXPECT_EQ(V.compileCache(), nullptr);
  EXPECT_EQ(V.cacheStats().Hits, 0u);
  fdd::CompileCache &Cache = V.enableCompileCache(64);
  EXPECT_EQ(V.compileCache(), &Cache);
  EXPECT_EQ(Cache.capacity(), 64u);
  fdd::FddRef R = V.compile(M.Program);
  EXPECT_GT(V.cacheStats().Insertions, 0u);
  V.setCompileCache(nullptr); // Detach: compiles keep working, uncached.
  EXPECT_EQ(V.compileCache(), nullptr);
  EXPECT_EQ(V.compile(M.Program), R);
}

//===----------------------------------------------------------------------===//
// Manager lifecycle: gc and reset
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, GcShrinksPoolsAndPreservesQueries) {
  ast::Context Ctx;
  routing::NetworkModel M1 = chainModel(1, Ctx);
  routing::NetworkModel M2 = chainModel(2, Ctx);
  routing::NetworkModel Garbage = chainModel(3, Ctx, Rational(1, 3));

  analysis::Verifier V;
  fdd::FddRef R1 = V.compile(M1.Program);
  fdd::FddRef R2 = V.compile(M2.Program);
  V.compile(Garbage.Program); // Dead the moment its ref is discarded.

  Packet In1 = M1.ingressPacket(0, Ctx);
  Packet In2 = M2.ingressPacket(0, Ctx);
  auto Out1 = V.manager().outputDistribution(R1, In1);
  auto Out2 = V.manager().outputDistribution(R2, In2);
  fdd::ActionDist Leaf1 = V.manager().evalToLeaf(R1, In1);

  std::size_t InnersBefore = V.manager().numInnerNodes();
  std::size_t LeavesBefore = V.manager().numLeaves();
  fdd::GcStats GS = V.manager().gc({&R1, &R2});

  EXPECT_GT(GS.FreedInners, 0u) << "garbage diagram was not collected";
  EXPECT_EQ(GS.LiveInners + GS.FreedInners, InnersBefore);
  EXPECT_EQ(GS.LiveLeaves + GS.FreedLeaves, LeavesBefore);
  EXPECT_EQ(V.manager().numInnerNodes(), GS.LiveInners);
  EXPECT_LT(V.manager().numInnerNodes(), InnersBefore);

  // Live roots answer every query exactly as before.
  auto Out1After = V.manager().outputDistribution(R1, In1);
  auto Out2After = V.manager().outputDistribution(R2, In2);
  EXPECT_TRUE(Out1.Outputs == Out1After.Outputs &&
              Out1.Dropped == Out1After.Dropped);
  EXPECT_TRUE(Out2.Outputs == Out2After.Outputs &&
              Out2.Dropped == Out2After.Dropped);
  EXPECT_EQ(Leaf1, V.manager().evalToLeaf(R1, In1));
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().identityLeaf()));

  // The manager keeps working after compaction: recompiling the collected
  // program must reproduce it (caches were rebuilt, not corrupted), and
  // the surviving roots must intern onto themselves.
  fdd::FddRef R1Again = V.compile(M1.Program);
  EXPECT_EQ(R1Again, R1);
  analysis::Verifier Fresh;
  EXPECT_TRUE(
      sameDiagram(V, R2, Fresh, Fresh.compile(M2.Program)));
}

TEST(FddLifecycleTest, GcToleratesDuplicateRootPointers) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  fdd::FddRef R = V.compile(M.Program);
  auto Out = V.manager().outputDistribution(R, M.ingressPacket(0, Ctx));
  // The same location handed in twice must be remapped exactly once.
  V.manager().gc({&R, &R});
  auto After = V.manager().outputDistribution(R, M.ingressPacket(0, Ctx));
  EXPECT_TRUE(Out.Outputs == After.Outputs && Out.Dropped == After.Dropped);
  EXPECT_EQ(V.compile(M.Program), R);
}

TEST(FddLifecycleTest, GcWithNoRootsKeepsOnlyConstants) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  V.compile(M.Program);
  ASSERT_GT(V.manager().numInnerNodes(), 0u);
  fdd::GcStats GS = V.manager().gc({});
  EXPECT_EQ(V.manager().numInnerNodes(), 0u);
  EXPECT_EQ(GS.LiveInners, 0u);
  EXPECT_GE(V.manager().numLeaves(), 2u); // identity + drop survive.
  // And a rebuilt world is still correct.
  fdd::FddRef R = V.compile(M.Program);
  analysis::Verifier Fresh;
  EXPECT_TRUE(sameDiagram(V, R, Fresh, Fresh.compile(M.Program)));
}

TEST(FddLifecycleTest, ResetReturnsManagerToPristineState) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  fdd::FddRef Before = V.compile(M.Program);
  Rational Delivery =
      V.deliveryProbability(Before, M.ingressPacket(0, Ctx));
  ASSERT_GT(V.manager().numInnerNodes(), 0u);

  V.manager().reset();
  EXPECT_EQ(V.manager().numInnerNodes(), 0u);
  EXPECT_EQ(V.manager().numLeaves(), 2u);
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().identityLeaf()));
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().dropLeaf()));

  // Recompile from scratch: same answers as before the reset.
  fdd::FddRef After = V.compile(M.Program);
  EXPECT_EQ(V.deliveryProbability(After, M.ingressPacket(0, Ctx)),
            Delivery);
}

TEST(FddLifecycleTest, ResetThenRebuildMatchesFreshManagerRefs) {
  ast::Context Ctx;
  routing::NetworkModel M1 = chainModel(1, Ctx);
  routing::NetworkModel M2 = chainModel(2, Ctx);
  analysis::Verifier V;
  V.compile(M1.Program);
  V.compile(M2.Program);
  V.manager().reset();
  // Refs are pool positions, so they only match a fresh manager's if
  // reset() left no pool, intern table or operation cache behind.
  fdd::FddRef Again = V.compile(M2.Program);
  analysis::Verifier Fresh;
  EXPECT_EQ(Again, Fresh.compile(M2.Program));
  EXPECT_EQ(V.manager().numInnerNodes(), Fresh.manager().numInnerNodes());
  EXPECT_EQ(V.manager().numLeaves(), Fresh.manager().numLeaves());
}

TEST(FddLifecycleTest, GcKeepsChoiceEntriesAndCompactsWeights) {
  fdd::FddManager M;
  fdd::FddRef P = M.test(0, 1);
  fdd::FddRef Q = M.assign(0, 2);
  fdd::FddRef Kept = M.choice(Rational(1, 3), P, Q);
  // A second weight whose every entry dies with its operand.
  M.choice(Rational(1, 5), M.test(1, 3), Q);

  fdd::GcStats GS = M.gc({&P, &Q, &Kept});
  // The kept choice decomposes into (P, Q) and the two leaf cofactor
  // pairs (pass, Q), (drop, Q); the dead one into three more entries.
  EXPECT_EQ(GS.KeptCacheEntries, 3u);
  EXPECT_EQ(GS.DroppedCacheEntries, 3u);
  EXPECT_EQ(GS.FreedWeights, 1u);
  EXPECT_EQ(GS.FreedInners, 2u); // The dead test and its choice result.

  // An equal but separately built weight hits the surviving entry.
  std::size_t Leaves = M.numLeaves(), Inners = M.numInnerNodes();
  Rational Equal(2, 6);
  EXPECT_EQ(M.choice(Equal, P, Q), Kept);
  EXPECT_EQ(M.numLeaves(), Leaves);
  EXPECT_EQ(M.numInnerNodes(), Inners);

  // Nothing routed through the roots keeps the weight alive any more.
  fdd::GcStats Empty = M.gc({});
  EXPECT_EQ(Empty.FreedWeights, 1u);
  EXPECT_EQ(Empty.KeptCacheEntries, 0u);
}

//===----------------------------------------------------------------------===//
// Flat intern and memo tables (property tests against std::unordered_map)
//===----------------------------------------------------------------------===//

namespace {

/// Interns \p Ops random keys from [0, \p Range) into an IndexSet over a
/// pool, mirrored by an unordered_map, then compacts the pool to its even
/// keys and re-checks every lookup. \p Hash may collide arbitrarily.
template <typename HashFn>
void checkIndexSet(uint64_t Seed, std::size_t Ops, uint64_t Range,
                   HashFn Hash) {
  Prng Rng(Seed);
  fdd::IndexSet Set;
  std::vector<uint64_t> Pool;
  std::unordered_map<uint64_t, uint32_t> Ref;
  for (std::size_t I = 0; I < Ops; ++I) {
    uint64_t Key = Rng.below(Range);
    uint32_t Index = Set.intern(Pool, Hash(Key), Key);
    auto [It, Inserted] =
        Ref.emplace(Key, static_cast<uint32_t>(Ref.size()));
    ASSERT_EQ(Index, It->second) << "seed " << Seed << " op " << I;
    ASSERT_EQ(Pool.size(), Ref.size());
    ASSERT_EQ(Set.size(), Ref.size());
    (void)Inserted;
  }
  ASSERT_GT(Ref.size(), 256u) << "too few keys to cross several doublings";

  std::vector<uint64_t> Compacted;
  for (uint64_t Key : Pool)
    if (Key % 2 == 0)
      Compacted.push_back(Key);
  Pool = Compacted;
  Set.reindex(Pool, Hash);
  ASSERT_EQ(Set.size(), Pool.size());
  for (std::size_t I = 0; I < Pool.size(); ++I)
    ASSERT_EQ(Set.intern(Pool, Hash(Pool[I]), Pool[I]), I);
  // A key compaction removed is new again and lands at the pool's end.
  for (uint64_t Key = 1; Key < Range; Key += 2) {
    if (!Ref.count(Key))
      continue;
    ASSERT_EQ(Set.intern(Pool, Hash(Key), Key), Compacted.size());
    ASSERT_EQ(Pool.back(), Key);
    break;
  }
}

} // namespace

TEST(FlatTableTest, IndexSetMatchesUnorderedMap) {
  for (uint64_t Seed : {1u, 2u, 3u})
    checkIndexSet(Seed, 20000, 8000,
                  [](uint64_t Key) { return std::hash<uint64_t>{}(Key); });
}

TEST(FlatTableTest, IndexSetSurvivesAllKeysSharingOneHash) {
  checkIndexSet(4, 2000, 700, [](uint64_t) { return std::size_t(42); });
}

TEST(FlatTableTest, MemoTableMatchesUnorderedMap) {
  using Key = fdd::MemoTable<3>::Key;
  struct KeyHash {
    std::size_t operator()(const Key &K) const {
      return hashValues(K[0], K[1], K[2]);
    }
  };
  for (uint64_t Seed : {5u, 6u, 7u}) {
    Prng Rng(Seed);
    fdd::MemoTable<3> Memo;
    std::unordered_map<Key, uint32_t, KeyHash> Ref;
    auto RandomKey = [&] {
      return Key{static_cast<uint32_t>(Rng.below(4)),
                 static_cast<uint32_t>(Rng.below(64)),
                 static_cast<uint32_t>(Rng.below(64))};
    };
    for (std::size_t I = 0; I < 30000; ++I) {
      Key K = RandomKey();
      const uint32_t *Hit = Memo.find(K);
      auto It = Ref.find(K);
      ASSERT_EQ(Hit != nullptr, It != Ref.end()) << "seed " << Seed;
      if (Hit) {
        ASSERT_EQ(*Hit, It->second);
        continue;
      }
      auto Value = static_cast<uint32_t>(Rng.below(1u << 20));
      Memo.insert(K, Value);
      Ref.emplace(K, Value);
      Memo.insert(K, Value + 1); // The first result recorded wins.
      ASSERT_EQ(*Memo.find(K), Value);
      ASSERT_EQ(Memo.size(), Ref.size());
    }
    ASSERT_GT(Ref.size(), 4096u) << "too few keys to cross several doublings";

    // gc()-style rebuild: drop odd results, shift the kept keys' last
    // operand and results, then compare against the same edit of Ref.
    auto Edit = [](Key &K, uint32_t &Value) {
      if (Value % 2)
        return false;
      K[2] += 1000;
      Value /= 2;
      return true;
    };
    Memo.rebuild(Edit);
    std::unordered_map<Key, uint32_t, KeyHash> Edited;
    for (const auto &[OldK, OldValue] : Ref) {
      Key K = OldK;
      uint32_t Value = OldValue;
      if (Edit(K, Value))
        Edited.emplace(K, Value);
    }
    ASSERT_EQ(Memo.size(), Edited.size());
    for (const auto &[K, Value] : Ref) {
      Key Moved = K;
      Moved[2] += 1000;
      const uint32_t *Hit = Memo.find(Moved);
      auto It = Edited.find(Moved);
      ASSERT_EQ(Hit != nullptr, It != Edited.end());
      if (Hit) {
        ASSERT_EQ(*Hit, It->second);
      }
      ASSERT_EQ(Memo.find(K), nullptr) << "an unmoved key survived rebuild";
    }
  }
}

//===----------------------------------------------------------------------===//
// solveLoop cache-hit statistics (regression)
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, LoopStatsRefreshedOnLoopCacheHit) {
  // One manager, two chain models: compiling K=1 then K=2 then K=1 again
  // makes the third solveLoop a LoopCache hit. lastLoopStats() must then
  // describe K=1's chain again, not keep reporting K=2's numbers.
  ast::Context Ctx;
  routing::NetworkModel M1 = chainModel(1, Ctx);
  routing::NetworkModel M2 = chainModel(2, Ctx);
  analysis::Verifier V;

  V.compile(M1.Program);
  fdd::LoopSolveStats S1 = V.manager().lastLoopStats();
  EXPECT_EQ(S1.NumStates, 6u); // 4K + 2 for K = 1.

  V.compile(M2.Program);
  fdd::LoopSolveStats S2 = V.manager().lastLoopStats();
  EXPECT_EQ(S2.NumStates, 10u); // 4K + 2 for K = 2.
  ASSERT_NE(S1.NumStates, S2.NumStates);

  V.compile(M1.Program); // LoopCache hit.
  const fdd::LoopSolveStats &Hit = V.manager().lastLoopStats();
  EXPECT_EQ(Hit.NumStates, S1.NumStates);
  EXPECT_EQ(Hit.NumTransient, S1.NumTransient);
  EXPECT_EQ(Hit.NumAbsorbing, S1.NumAbsorbing);
  EXPECT_EQ(Hit.NumQEntries, S1.NumQEntries);
}

//===----------------------------------------------------------------------===//
// Fingerprint sanity at the cache boundary
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, FingerprintDistinguishesSolverRelevantStructure) {
  // Two models differing only in the failure probability must have
  // different program fingerprints (same shape, different rational).
  ast::Context CtxA, CtxB;
  routing::NetworkModel A = chainModel(2, CtxA, Rational(1, 10));
  routing::NetworkModel B = chainModel(2, CtxB, Rational(1, 9));
  EXPECT_NE(ast::programHash(A.Program), ast::programHash(B.Program));
  // And the same model built twice fingerprints identically.
  ast::Context CtxC;
  routing::NetworkModel C = chainModel(2, CtxC, Rational(1, 10));
  EXPECT_EQ(ast::programHash(A.Program), ast::programHash(C.Program));
}
