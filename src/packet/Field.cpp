//===----------------------------------------------------------------------===//
///
/// \file
/// FieldTable: interning of field names to dense ids with bounds
/// metadata.
///
//===----------------------------------------------------------------------===//

#include "packet/Field.h"

#include "support/Error.h"

#include <cassert>

using namespace mcnk;

FieldId FieldTable::intern(std::string_view Name) {
  FieldId Id = tryIntern(Name);
  if (Id == NotFound)
    fatalError("too many fields interned");
  return Id;
}

FieldId FieldTable::tryIntern(std::string_view Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  if (Names.size() >= MaxFields)
    return NotFound;
  FieldId Id = static_cast<FieldId>(Names.size());
  Names.emplace_back(Name);
  Ids.emplace(Names.back(), Id);
  return Id;
}

FieldId FieldTable::lookup(std::string_view Name) const {
  auto It = Ids.find(Name);
  return It == Ids.end() ? NotFound : It->second;
}

const std::string &FieldTable::name(FieldId Id) const {
  assert(Id < Names.size() && "field id out of range");
  return Names[Id];
}
