//===----------------------------------------------------------------------===//
///
/// \file
/// Portable FDD representation for moving diagrams between managers: the
/// compile cache and the on-disk store keep diagrams in this form so they
/// outlive any one FddManager, and tests compare diagrams from different
/// managers through it.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_EXPORT_H
#define MCNK_FDD_EXPORT_H

#include "fdd/Fdd.h"

#include <string>
#include <vector>

namespace mcnk {
namespace fdd {

/// Self-contained DAG in topological order (children precede parents).
struct PortableFdd {
  struct Node {
    bool IsLeaf = false;
    // Interior payload.
    FieldId Field = 0;
    FieldValue Value = 0;
    uint32_t Hi = 0; // Indices into Nodes.
    uint32_t Lo = 0;
    // Leaf payload.
    std::vector<std::pair<Action, Rational>> Dist;
  };
  std::vector<Node> Nodes;
  uint32_t Root = 0;
};

/// Extracts the diagram rooted at \p Ref into a portable form.
PortableFdd exportFdd(const FddManager &Manager, FddRef Ref);

/// Structural validation of a portable diagram, shared by the importers:
/// returns true when the diagram is well-formed (non-empty, root in
/// range, children strictly topological, test ordering respected, every
/// leaf a genuine distribution — no negative weights, drop-with-mods
/// actions, or sums != 1). On failure returns false and, when \p Error is
/// non-null, a diagnostic. Never aborts, in any build type.
bool validateFdd(const PortableFdd &Portable, std::string *Error = nullptr);

/// Rebuilds a portable diagram inside \p Manager (hash-consing dedups
/// against existing nodes). Validates the input in every build type —
/// an empty node list, an out-of-range root, child indices that are out
/// of range / not strictly topological, test-ordering violations, and
/// malformed leaf distributions (negative weights, sum != 1) abort with
/// a diagnostic instead of corrupting the manager.
FddRef importFdd(FddManager &Manager, const PortableFdd &Portable);

/// Non-aborting importer for *untrusted* diagrams — the on-disk cache
/// store (fdd/CacheStore.h) makes malformed bytes attacker surface, not
/// just programmer error. Validates first and only touches \p Manager on
/// success; on failure returns false with a diagnostic in \p Error (when
/// non-null) and leaves \p Out untouched.
bool tryImportFdd(FddManager &Manager, const PortableFdd &Portable,
                  FddRef &Out, std::string *Error = nullptr);

/// Renders the diagram as an indented text tree (debugging / golden
/// tests). Field names come from \p Fields.
std::string dumpFdd(const FddManager &Manager, FddRef Ref,
                    const FieldTable &Fields);

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_EXPORT_H
