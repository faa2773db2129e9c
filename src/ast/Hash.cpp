//===----------------------------------------------------------------------===//
///
/// \file
/// Structural fingerprinting: an iterative post-order walk over the term
/// DAG computing two independently mixed 64-bit lanes per node from fixed
/// constants only (salt-stable across processes), with the commutative
/// normalizations documented in Hash.h.
///
//===----------------------------------------------------------------------===//

#include "ast/Hash.h"

#include "ast/Traversal.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <string_view>
#include <vector>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix with fixed constants.
uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// FNV-1a over bytes — the salt-stable scalar hash for probabilities
/// (hashed through their canonical decimal rendering, which is exact for
/// rationals and independent of the internal representation).
uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Two-lane accumulator; both lanes see every folded value but mix it
/// with different constants, giving 128 effectively independent bits.
struct Lanes {
  uint64_t A, B;

  explicit Lanes(uint64_t Tag)
      : A(mix64(Tag ^ 0x5851f42d4c957f2dULL)),
        B(mix64(Tag + 0x14057b7ef767814fULL)) {}

  void fold(uint64_t V) {
    A = mix64(A ^ (V + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2)));
    B = mix64(B + (V ^ 0xd6e8feb86659fd93ULL) + (B << 5) + (B >> 3));
  }
  void fold(const ProgramHash &H) {
    fold(H.Lo);
    fold(H.Hi);
  }
  ProgramHash done() const { return {A, B}; }
};

/// Fixed per-kind tags (never reuse a value; the predicate-commutative
/// variants of Seq get their own tag so `t;u` on predicates cannot collide
/// with `t&u`).
enum : uint64_t {
  TagDrop = 0x11,
  TagSkip = 0x12,
  TagTest = 0x13,
  TagAssign = 0x14,
  TagNot = 0x15,
  TagSeq = 0x16,
  TagSeqPred = 0x17,
  TagUnion = 0x18,
  TagChoice = 0x19,
  TagStar = 0x1a,
  TagIte = 0x1b,
  TagWhile = 0x1c,
  TagCase = 0x1d,
};

/// Orders two (probability-hash, operand-hash) pairs for the symmetric
/// folds; total order, ties broken on every component.
using WeightedChild = std::pair<uint64_t, ProgramHash>;
bool weightedLess(const WeightedChild &X, const WeightedChild &Y) {
  if (X.first != Y.first)
    return X.first < Y.first;
  if (X.second.Lo != Y.second.Lo)
    return X.second.Lo < Y.second.Lo;
  return X.second.Hi < Y.second.Hi;
}

bool hashLess(const ProgramHash &X, const ProgramHash &Y) {
  return X.Lo != Y.Lo ? X.Lo < Y.Lo : X.Hi < Y.Hi;
}

uint32_t saturatingSize(uint64_t Size) {
  return Size > 0xffffffffULL ? 0xffffffffu : static_cast<uint32_t>(Size);
}

/// Computes one node's fingerprint; every child must already be memoized.
NodeFingerprint computeFingerprint(const Node *N,
                                   const FingerprintMemo &Memo) {
  auto Child = [&](const Node *C) -> const NodeFingerprint & {
    return *Memo.find(C);
  };
  uint64_t Size = 1;
  auto FoldSize = [&](const Node *C) { Size += Child(C).Size; };

  switch (N->kind()) {
  case NodeKind::Drop:
    return {Lanes(TagDrop).done(), 1};
  case NodeKind::Skip:
    return {Lanes(TagSkip).done(), 1};
  case NodeKind::Test: {
    const auto *T = cast<TestNode>(N);
    Lanes L(TagTest);
    L.fold(T->field());
    L.fold(T->value());
    return {L.done(), 1};
  }
  case NodeKind::Assign: {
    const auto *T = cast<AssignNode>(N);
    Lanes L(TagAssign);
    L.fold(T->field());
    L.fold(T->value());
    return {L.done(), 1};
  }
  case NodeKind::Not: {
    Lanes L(TagNot);
    const Node *Op = cast<NotNode>(N)->operand();
    L.fold(Child(Op).Hash);
    FoldSize(Op);
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::Seq: {
    const auto *S = cast<SeqNode>(N);
    ProgramHash HL = Child(S->lhs()).Hash, HR = Child(S->rhs()).Hash;
    FoldSize(S->lhs());
    FoldSize(S->rhs());
    // Predicate sequencing is conjunction, which commutes on canonical
    // FDDs; fold the operands in hash order so both spellings share one
    // cache entry. Program sequencing stays order-sensitive.
    if (N->isPredicate()) {
      Lanes L(TagSeqPred);
      if (hashLess(HR, HL))
        std::swap(HL, HR);
      L.fold(HL);
      L.fold(HR);
      return {L.done(), saturatingSize(Size)};
    }
    Lanes L(TagSeq);
    L.fold(HL);
    L.fold(HR);
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::Union: {
    const auto *U = cast<UnionNode>(N);
    ProgramHash HL = Child(U->lhs()).Hash, HR = Child(U->rhs()).Hash;
    FoldSize(U->lhs());
    FoldSize(U->rhs());
    // Disjunction commutes (and the reference set semantics of the
    // non-predicate union is also symmetric), so always fold symmetric.
    Lanes L(TagUnion);
    if (hashLess(HR, HL))
      std::swap(HL, HR);
    L.fold(HL);
    L.fold(HR);
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::Choice: {
    const auto *C = cast<ChoiceNode>(N);
    FoldSize(C->lhs());
    FoldSize(C->rhs());
    // p ⊕_r q == q ⊕_{1-r} p: pair each operand with its own weight and
    // fold the pairs in a canonical order.
    const auto [WeightL, WeightR] = choiceWeightHashes(C->probability());
    WeightedChild A{WeightL, Child(C->lhs()).Hash};
    WeightedChild B{WeightR, Child(C->rhs()).Hash};
    if (weightedLess(B, A))
      std::swap(A, B);
    Lanes L(TagChoice);
    L.fold(A.first);
    L.fold(A.second);
    L.fold(B.first);
    L.fold(B.second);
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::Star: {
    Lanes L(TagStar);
    const Node *Body = cast<StarNode>(N)->body();
    L.fold(Child(Body).Hash);
    FoldSize(Body);
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::IfThenElse: {
    const auto *I = cast<IfThenElseNode>(N);
    Lanes L(TagIte);
    L.fold(Child(I->cond()).Hash);
    L.fold(Child(I->thenBranch()).Hash);
    L.fold(Child(I->elseBranch()).Hash);
    FoldSize(I->cond());
    FoldSize(I->thenBranch());
    FoldSize(I->elseBranch());
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::While: {
    const auto *W = cast<WhileNode>(N);
    Lanes L(TagWhile);
    L.fold(Child(W->cond()).Hash);
    L.fold(Child(W->body()).Hash);
    FoldSize(W->cond());
    FoldSize(W->body());
    return {L.done(), saturatingSize(Size)};
  }
  case NodeKind::Case: {
    const auto *C = cast<CaseNode>(N);
    Lanes L(TagCase);
    L.fold(C->branches().size());
    for (const auto &[Guard, Program] : C->branches()) {
      L.fold(Child(Guard).Hash);
      L.fold(Child(Program).Hash);
      FoldSize(Guard);
      FoldSize(Program);
    }
    L.fold(Child(C->defaultBranch()).Hash);
    FoldSize(C->defaultBranch());
    return {L.done(), saturatingSize(Size)};
  }
  }
  MCNK_UNREACHABLE("unhandled node kind");
}

/// fnv1a of the text Rational::toString gives Num/Den: "n" when Den is 1,
/// otherwise "n/d".
uint64_t smallRationalTextHash(int64_t Num, int64_t Den) {
  char Buf[48]; // Two int64 renderings (at most 20 chars each) and a '/'.
  char *P = std::to_chars(Buf, Buf + 20, Num).ptr;
  if (Den != 1) {
    *P++ = '/';
    P = std::to_chars(P, P + 20, Den).ptr;
  }
  return fnv1a(std::string_view(Buf, static_cast<std::size_t>(P - Buf)));
}

} // namespace

std::pair<uint64_t, uint64_t> ast::choiceWeightHashes(const Rational &R) {
  const BigInt &Num = R.numerator(), &Den = R.denominator();
  int64_t Rest;
  // 1 - n/d = (d - n)/d, already canonical: gcd(d - n, d) = gcd(n, d) = 1,
  // and d - n = 0 only for 1/1, whose complement 0/1 renders as "0".
  if (Num.isSmallRep() && Den.isSmallRep() &&
      !__builtin_sub_overflow(Den.toInt64(), Num.toInt64(), &Rest))
    return {smallRationalTextHash(Num.toInt64(), Den.toInt64()),
            smallRationalTextHash(Rest, Den.toInt64())};
  return {fnv1a(R.toString()), fnv1a((Rational(1) - R).toString())};
}

const NodeFingerprint &FingerprintMemo::at(const Node *N) const {
  const NodeFingerprint *FP = find(N);
  if (!FP)
    fatalError("FingerprintMemo::at: node has no fingerprint");
  return *FP;
}

FingerprintMemo::FingerprintMemo(const Node *Root) : Slots(Root->id() + 1) {
  // Post-order over the DAG; a node is expanded once and filled once its
  // children are.
  struct WalkFrame {
    const Node *N;
    bool Expanded;
  };
  std::vector<WalkFrame> Stack;
  Stack.push_back({Root, false});
  while (!Stack.empty()) {
    WalkFrame &Top = Stack.back();
    const Node *N = Top.N;
    if (find(N)) {
      Stack.pop_back();
      continue;
    }
    if (!Top.Expanded) {
      Top.Expanded = true;
      // Pushing may invalidate Top; nothing below reads it.
      forEachChild(N, [&](const Node *C) {
        if (C->id() >= Slots.size())
          fatalError("FingerprintMemo: a child outside the root's Context");
        if (!find(C))
          Stack.push_back({C, false});
      });
      continue;
    }
    Stack.pop_back();
    Slot &S = Slots[N->id()];
    if (S.Owner)
      fatalError("FingerprintMemo: a term mixes nodes of two Contexts");
    S.Fingerprint = computeFingerprint(N, *this);
    S.Owner = N;
  }
}

ProgramHash ast::programHash(const Node *Root) {
  return FingerprintMemo(Root).at(Root).Hash;
}
