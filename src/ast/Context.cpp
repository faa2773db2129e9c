//===----------------------------------------------------------------------===//
///
/// \file
/// Chunked arena allocation and smart constructors for AST nodes, applying the
/// light normalizations (drop/skip absorption, trivial-probability
/// collapse) and the Sec 2/3 desugarings of derived forms.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"

#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace mcnk;
using namespace mcnk::ast;

Context::Context() {
  DropSingleton = make<DropNode>();
  SkipSingleton = make<SkipNode>();
}

Context::~Context() {
  for (Node *N : Owning) {
    if (auto *C = dyn_cast<ChoiceNode>(N))
      C->~ChoiceNode();
    else
      cast<CaseNode>(N)->~CaseNode();
  }
}

void Context::newChunk() {
  LastChunkBytes = LastChunkBytes ? 2 * LastChunkBytes : FirstChunkBytes;
  // Default-initialized: zeroing would touch every page of the chunk.
  Chunks.emplace_back(new std::byte[LastChunkBytes]);
  Cur = Chunks.back().get();
  End = Cur + LastChunkBytes;
}

void Context::noteLoc(const Node *N, SourceLoc Loc) {
  if (!N || !Loc.valid() || N == DropSingleton || N == SkipSingleton)
    return;
  if (N->id() >= Locs.size())
    Locs.resize(std::max(NumNodes, 2 * Locs.size()));
  if (!Locs[N->id()].valid()) // First write wins.
    Locs[N->id()] = Loc;
}

SourceLoc Context::loc(const Node *N) const {
  return N->id() < Locs.size() ? Locs[N->id()] : SourceLoc{};
}

const Node *Context::test(FieldId Field, FieldValue Value) {
  return make<TestNode>(Field, Value);
}

const Node *Context::assign(FieldId Field, FieldValue Value) {
  return make<AssignNode>(Field, Value);
}

const Node *Context::negate(const Node *Pred) {
  assert(Pred->isPredicate() && "negation of a non-predicate");
  if (isa<DropNode>(Pred))
    return skip();
  if (isa<SkipNode>(Pred))
    return drop();
  if (const auto *Inner = dyn_cast<NotNode>(Pred))
    return Inner->operand(); // ¬¬t = t
  return make<NotNode>(Pred);
}

const Node *Context::seq(const Node *Lhs, const Node *Rhs) {
  // p ; drop ≡ drop ; p ≡ drop and skip is the unit of ';'. Both hold in
  // the input-output semantics (Fig 3), so collapsing here is sound.
  if (isa<DropNode>(Lhs) || isa<SkipNode>(Rhs))
    return Lhs;
  if (isa<DropNode>(Rhs) || isa<SkipNode>(Lhs))
    return Rhs;
  return make<SeqNode>(Lhs, Rhs);
}

const Node *Context::unite(const Node *Lhs, const Node *Rhs) {
  // drop is the unit of '&' on programs and predicates alike.
  if (isa<DropNode>(Lhs))
    return Rhs;
  if (isa<DropNode>(Rhs))
    return Lhs;
  // For predicates, skip absorbs (t & true = true). Not true for programs.
  if (Lhs->isPredicate() && Rhs->isPredicate() &&
      (isa<SkipNode>(Lhs) || isa<SkipNode>(Rhs)))
    return skip();
  return make<UnionNode>(Lhs, Rhs);
}

const Node *Context::choice(const Rational &Probability, const Node *Lhs,
                            const Node *Rhs) {
  assert(Probability.isProbability() && "choice probability outside [0,1]");
  if (Probability.isOne() || Lhs == Rhs)
    return Lhs;
  if (Probability.isZero())
    return Rhs;
  return make<ChoiceNode>(Probability, Lhs, Rhs);
}

const Node *Context::star(const Node *Body) {
  // skip* = skip, drop* = skip (zero iterations yield the input).
  if (isa<SkipNode>(Body) || isa<DropNode>(Body))
    return skip();
  return make<StarNode>(Body);
}

const Node *Context::ite(const Node *Cond, const Node *Then,
                         const Node *Else) {
  assert(Cond->isPredicate() && "if-condition must be a predicate");
  if (isa<SkipNode>(Cond))
    return Then;
  if (isa<DropNode>(Cond))
    return Else;
  return make<IfThenElseNode>(Cond, Then, Else);
}

const Node *Context::whileLoop(const Node *Cond, const Node *Body) {
  assert(Cond->isPredicate() && "while-condition must be a predicate");
  if (isa<DropNode>(Cond))
    return skip(); // Zero iterations.
  return make<WhileNode>(Cond, Body);
}

const Node *Context::caseOf(std::vector<CaseNode::Branch> Branches,
                            const Node *Default) {
  for ([[maybe_unused]] const CaseNode::Branch &B : Branches)
    assert(B.first->isPredicate() && "case guard must be a predicate");
  if (Branches.empty())
    return Default;
  return make<CaseNode>(std::move(Branches), Default);
}

const Node *Context::seqAll(const std::vector<const Node *> &Programs) {
  const Node *Result = skip();
  for (const Node *P : Programs)
    Result = seq(Result, P);
  return Result;
}

const Node *Context::uniteAll(const std::vector<const Node *> &Programs) {
  const Node *Result = drop();
  for (const Node *P : Programs)
    Result = unite(Result, P);
  return Result;
}

const Node *
Context::choiceUniform(const std::vector<const Node *> &Programs) {
  assert(!Programs.empty() && "uniform choice over an empty list");
  // p1 ⊕_{1/n} (p2 ⊕_{1/(n-1)} (... pn)) gives each branch mass 1/n.
  const Node *Result = Programs.back();
  for (std::size_t I = Programs.size() - 1; I-- > 0;) {
    int64_t Remaining = static_cast<int64_t>(Programs.size() - I);
    Result = choice(Rational(1, Remaining), Programs[I], Result);
  }
  return Result;
}

const Node *Context::choiceWeighted(
    const std::vector<std::pair<const Node *, Rational>> &Cases) {
  assert(!Cases.empty() && "weighted choice over an empty list");
  Rational Total;
  for (const auto &[Program, Weight] : Cases) {
    assert(Weight.isProbability() && "negative or >1 weight");
    Total += Weight;
  }
  assert(Total.isOne() && "weighted choice must sum to one");

  // Right fold: p1 ⊕_{w1} (rest, renormalized to mass 1 - w1).
  const Node *Result = Cases.back().first;
  Rational Mass = Cases.back().second;
  for (std::size_t I = Cases.size() - 1; I-- > 0;) {
    const auto &[Program, Weight] = Cases[I];
    Mass += Weight;
    if (Mass.isZero())
      continue; // All-zero tail; keep current Result arbitrary.
    Result = choice(Weight / Mass, Program, Result);
  }
  return Result;
}

const Node *Context::local(FieldId Field, FieldValue Init, const Node *Body) {
  // var f := n in p ≜ f := n ; p ; f := 0 — the trailing write erases the
  // local field so it does not leak into the observable output (§3).
  return seq(assign(Field, Init), seq(Body, assign(Field, 0)));
}
