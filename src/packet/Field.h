//===----------------------------------------------------------------------===//
///
/// \file
/// Packet fields. A packet is a record mapping a finite set of fields to
/// bounded integers (paper §3); fields include real headers (src, dst) and
/// logical fields (sw, pt, up_i) used for modeling. FieldTable interns
/// field names to dense ids so packets and FDD tests index by integer.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_PACKET_FIELD_H
#define MCNK_PACKET_FIELD_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace mcnk {

/// Dense id of an interned field. Also the FDD variable-ordering position:
/// fields are ordered by id (first interned tests first).
using FieldId = uint16_t;

/// Field values are bounded naturals.
using FieldValue = uint32_t;

/// Interns field names; stable dense ids in interning order. Lookups take
/// a string_view and build no string for a name already interned.
class FieldTable {
public:
  FieldTable() = default;
  // The index views the names' storage, so a copy would dangle.
  FieldTable(const FieldTable &) = delete;
  FieldTable &operator=(const FieldTable &) = delete;

  /// Returns the id for \p Name, interning it on first use; a full table
  /// is a fatalError.
  FieldId intern(std::string_view Name);

  /// Like intern, but returns NotFound instead of interning when the
  /// table already holds MaxFields names.
  FieldId tryIntern(std::string_view Name);

  /// Returns the id for \p Name or NotFound if never interned.
  static constexpr FieldId NotFound = 0xffff;
  FieldId lookup(std::string_view Name) const;

  /// Capacity: every id below NotFound.
  static constexpr std::size_t MaxFields = NotFound;

  const std::string &name(FieldId Id) const;
  std::size_t numFields() const { return Names.size(); }

private:
  /// A deque never moves its elements, so Ids' keys stay valid.
  std::deque<std::string> Names;
  std::unordered_map<std::string_view, FieldId> Ids;
};

} // namespace mcnk

#endif // MCNK_PACKET_FIELD_H
