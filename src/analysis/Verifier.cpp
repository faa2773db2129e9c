//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the verification facade: wires AST->FDD compilation to the
/// query procedures and derives delivery probabilities and hop-count
/// statistics from per-input output distributions.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include <cassert>

using namespace mcnk;
using namespace mcnk::analysis;
using fdd::FddRef;

double HopStats::expectedGivenDelivered() const {
  if (Delivered.isZero())
    return 0.0;
  double Weighted = 0.0;
  for (const auto &[Hops, Mass] : Histogram)
    Weighted += static_cast<double>(Hops) * Mass.toDouble();
  return Weighted / Delivered.toDouble();
}

Rational HopStats::cumulative(unsigned MaxHops) const {
  Rational Total;
  for (const auto &[Hops, Mass] : Histogram)
    if (Hops <= MaxHops)
      Total += Mass;
  return Total;
}

FddRef Verifier::compile(const ast::Node *Program) {
  return fdd::compile(Manager, Program, Cache);
}

fdd::CompileCache &Verifier::enableCompileCache(std::size_t Capacity) {
  OwnedCache = std::make_unique<fdd::CompileCache>(Capacity);
  Cache = OwnedCache.get();
  return *Cache;
}

void Verifier::setCompileCache(fdd::CompileCache *Shared) {
  OwnedCache.reset();
  Cache = Shared;
}

bool Verifier::equivalent(FddRef P, FddRef Q) const {
  if (Manager.solverKind() == markov::SolverKind::Exact)
    return fdd::equivalent(P, Q);
  return fdd::approxEquivalent(Manager, P, Q, Tolerance);
}

bool Verifier::refines(FddRef P, FddRef Q) const {
  double Eps =
      Manager.solverKind() == markov::SolverKind::Exact ? 0.0 : Tolerance;
  return fdd::refines(Manager, P, Q, Eps);
}

Rational Verifier::deliveryProbability(FddRef Program,
                                       const Packet &In) const {
  return Rational(1) - Manager.evalToLeaf(Program, In).dropMass();
}

Rational Verifier::averageDeliveryProbability(
    FddRef Program, const std::vector<Packet> &In) const {
  assert(!In.empty() && "no ingress packets");
  Rational Total;
  for (const Packet &P : In)
    Total += deliveryProbability(Program, P);
  return Total / Rational(static_cast<int64_t>(In.size()));
}

std::map<FieldValue, Rational>
Verifier::outputFieldDistribution(FddRef Program, const Packet &In,
                                  FieldId Field) const {
  std::map<FieldValue, Rational> Result;
  fdd::FddManager::OutputDist Out = Manager.outputDistribution(Program, In);
  for (const auto &[Pkt, W] : Out.Outputs)
    Result[Pkt.get(Field)] += W;
  return Result;
}

HopStats Verifier::hopStats(FddRef Program, const std::vector<Packet> &In,
                            FieldId HopField) const {
  assert(!In.empty() && "no ingress packets");
  HopStats Stats;
  Rational Share(1, static_cast<int64_t>(In.size()));
  for (const Packet &P : In) {
    for (const auto &[Value, Mass] :
         outputFieldDistribution(Program, P, HopField)) {
      Stats.Histogram[Value] += Mass * Share;
      Stats.Delivered += Mass * Share;
    }
  }
  return Stats;
}
