//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing verification facade: compile guarded ProbNetKAT
/// programs and decide the paper's query classes — equivalence (≡),
/// refinement (<, ≤), delivery probabilities, and hop-count statistics
/// (§2 and §7). This is the API the examples and benchmark harnesses use.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_ANALYSIS_VERIFIER_H
#define MCNK_ANALYSIS_VERIFIER_H

#include "fdd/Compile.h"
#include "fdd/CompileCache.h"
#include "fdd/Fdd.h"
#include "fdd/Query.h"

#include <map>
#include <memory>
#include <vector>

namespace mcnk {
namespace analysis {

/// Aggregated hop-count statistics over a set of ingress packets
/// (uniform traffic split, as in Fig 12).
struct HopStats {
  /// Pr[delivered with hop count == h], averaged over ingresses.
  std::map<unsigned, Rational> Histogram;
  /// Total delivered mass (≤ 1).
  Rational Delivered;
  /// E[hop count | delivered]; 0 when nothing is delivered.
  double expectedGivenDelivered() const;
  /// Pr[delivered and hop count ≤ h].
  Rational cumulative(unsigned MaxHops) const;
};

/// Bundles an FDD manager with the query procedures. Equivalence checks
/// are exact reference-equality in Exact solver mode and epsilon-tolerant
/// otherwise (floating point enters only through loop solutions).
class Verifier {
public:
  explicit Verifier(markov::SolverKind Solver = markov::SolverKind::Exact,
                    double Tol = 1e-9)
      : Manager(Solver), Tolerance(Tol) {}

  fdd::FddManager &manager() { return Manager; }

  /// The exact engine's test-only kernel knobs for while-loop solves
  /// (markov::SolverStructure). Forwards to the manager and applies to
  /// every subsequent compile; a cache-backed verifier still answers hits
  /// from its compile cache, whatever kernel filled it.
  void setSolverStructure(const markov::SolverStructure &S) {
    Manager.setSolverStructure(S);
  }
  const markov::SolverStructure &solverStructure() const {
    return Manager.solverStructure();
  }

  /// Compiles a guarded program in this verifier's manager, exactly as
  /// given: callers that simplify (ast/Simplify.h) or slice (ast/Slice.h)
  /// rewrite the AST first.
  ///
  /// \param Program  Guarded-fragment program (ast::isGuarded must hold).
  /// \return The compiled diagram, owned by this verifier's manager. All
  ///         query methods below expect diagrams from that same manager.
  fdd::FddRef compile(const ast::Node *Program);

  /// Enables the persistent cross-compile cache (docs/ARCHITECTURE.md
  /// S12): every subsequent compile() consults and fills it, so repeated
  /// compiles of overlapping program families only pay for what changed.
  /// Replaces any previously attached cache; returns the new one.
  fdd::CompileCache &enableCompileCache(std::size_t Capacity = 1u << 12);
  /// Attaches an external (possibly shared) cache the caller owns; null
  /// detaches and disables caching.
  void setCompileCache(fdd::CompileCache *Shared);
  /// The active cache, or null when caching is off.
  fdd::CompileCache *compileCache() const { return Cache; }

  /// Hit/miss/size counters of the active cache (all zero when off).
  fdd::CompileCache::Stats cacheStats() const {
    return Cache ? Cache->stats() : fdd::CompileCache::Stats();
  }

  /// p ≡ q.
  bool equivalent(fdd::FddRef P, fdd::FddRef Q) const;
  /// p ≤ q (refinement); p < q is refines && !equivalent.
  bool refines(fdd::FddRef P, fdd::FddRef Q) const;
  bool strictlyRefines(fdd::FddRef P, fdd::FddRef Q) const {
    return refines(P, Q) && !equivalent(P, Q);
  }

  /// Probability the program emits any packet for this input.
  ///
  /// \param Program  A diagram compiled by this verifier.
  /// \param In       Concrete input packet (must assign every field the
  ///                 diagram tests or modifies).
  /// \return An exact rational in [0, 1]: one minus the drop mass of the
  ///         output distribution for \p In.
  Rational deliveryProbability(fdd::FddRef Program, const Packet &In) const;
  /// Mean delivery probability over a uniform ingress mix: the arithmetic
  /// average of deliveryProbability over \p In (Pr[delivered] under a
  /// uniform choice of ingress, as in the §7 resilience tables).
  Rational averageDeliveryProbability(fdd::FddRef Program,
                                      const std::vector<Packet> &In) const;

  /// Distribution of \p Field over the delivered outputs for one input
  /// (probabilities need not sum to 1; the gap is dropped mass).
  std::map<FieldValue, Rational>
  outputFieldDistribution(fdd::FddRef Program, const Packet &In,
                          FieldId Field) const;

  /// Hop-count statistics over a uniform ingress mix; \p HopField is the
  /// model's counter field.
  HopStats hopStats(fdd::FddRef Program, const std::vector<Packet> &In,
                    FieldId HopField) const;

private:
  fdd::FddManager Manager;
  double Tolerance;
  /// Owned storage when enableCompileCache() created the cache; Cache may
  /// instead point at caller-owned shared storage (setCompileCache).
  std::unique_ptr<fdd::CompileCache> OwnedCache;
  fdd::CompileCache *Cache = nullptr;
};

} // namespace analysis
} // namespace mcnk

#endif // MCNK_ANALYSIS_VERIFIER_H
