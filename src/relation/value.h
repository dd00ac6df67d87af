// Domain values and the symbol table that interns them.
//
// All domain elements (graph vertices, propositional variables, clause
// names, bits 0/1, ...) are interned into dense uint32 ids so tuples are
// flat integer arrays and joins are integer comparisons.

#ifndef INFLOG_RELATION_VALUE_H_
#define INFLOG_RELATION_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/logging.h"

namespace inflog {

/// A domain element, represented as an index into a SymbolTable.
using Value = uint32_t;

/// Sentinel for "no value" (used by binding environments).
inline constexpr Value kNoValue = static_cast<Value>(-1);

/// Transparent string hasher: lets unordered containers keyed by
/// std::string answer string_view lookups without materializing a
/// temporary std::string (C++20 heterogeneous lookup).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Bidirectional mapping between external names and dense Value ids.
///
/// A single SymbolTable is shared by a database and the programs evaluated
/// against it, so that constants appearing in rule bodies denote the same
/// ids as the facts. Interning the same name twice returns the same id.
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Returns the id for `name`, interning it if new. Only the new-symbol
  /// path allocates; repeat interning is a heterogeneous lookup.
  Value Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const Value id = static_cast<Value>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Interns the decimal rendering of `n`.
  Value InternInt(int64_t n) { return Intern(std::to_string(n)); }

  /// Returns the id for `name` or kNoValue if it was never interned.
  /// Never allocates.
  Value Find(std::string_view name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kNoValue : it->second;
  }

  /// The external name of `id`. Requires id < size().
  const std::string& Name(Value id) const {
    INFLOG_CHECK(id < names_.size()) << "symbol id out of range";
    return names_[id];
  }

  /// Number of interned symbols.
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  // Transparent hash + equality so Find/Intern look up string_views
  // directly against the owned std::string keys.
  std::unordered_map<std::string, Value, StringHash, std::equal_to<>> ids_;
};

/// The character classes of Datalog text (ASCII only), shared by the
/// lexer (src/ast/lexer.h) and AppendConstant so the two agree on which
/// names read back bare.
inline bool IsLowerAscii(char c) { return c >= 'a' && c <= 'z'; }
inline bool IsUpperAscii(char c) { return c >= 'A' && c <= 'Z'; }
inline bool IsDigitAscii(char c) { return c >= '0' && c <= '9'; }
inline bool IsWordAscii(char c) {
  return IsLowerAscii(c) || IsUpperAscii(c) || IsDigitAscii(c) || c == '_';
}

/// Appends constant `name` as Datalog text spells it: bare when the lexer
/// reads it back as that constant (a lowercase-initial identifier or a
/// digit string), else between single quotes. The one writer of constants
/// into text. A name containing `'` has no spelling; it is written quoted
/// all the same and does not read back.
inline void AppendConstant(std::string_view name, std::string* out) {
  const bool digits = !name.empty() && IsDigitAscii(name[0]);
  bool bare = digits || (!name.empty() && IsLowerAscii(name[0]));
  for (const char c : name) bare &= digits ? IsDigitAscii(c) : IsWordAscii(c);
  if (!bare) out->push_back('\'');
  out->append(name);
  if (!bare) out->push_back('\'');
}

}  // namespace inflog

#endif  // INFLOG_RELATION_VALUE_H_
