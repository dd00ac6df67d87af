// Database: a finite structure — a universe (active domain) plus named
// relations over it.
//
// This is the object the paper's definitions quantify over: DATALOG¬
// variables range over the universe A, and the operator Θ maps IDB relation
// values over A to IDB relation values over A. The universe is maintained
// as the active domain (every constant appearing in a fact joins it) plus
// any explicitly declared elements, matching Section 2 of the paper.

#ifndef INFLOG_RELATION_DATABASE_H_
#define INFLOG_RELATION_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/relation/relation.h"
#include "src/relation/tuple.h"
#include "src/relation/value.h"

namespace inflog {

/// Names one state of one Database object: see Database::generation().
struct DatabaseGeneration {
  uint64_t identity = 0;  ///< The object's, unique in the process.
  /// Bumped by each relation declaration, universe addition and
  /// assignment into the object.
  uint64_t version = 0;
  uint64_t contents = 0;  ///< The sum of the relations' Relation::version().

  bool operator==(const DatabaseGeneration&) const = default;
};

/// A finite structure over a shared symbol table.
class Database {
 public:
  /// Creates a database with a fresh symbol table.
  Database() : symbols_(std::make_shared<SymbolTable>()) {}

  /// Creates a database sharing an existing symbol table (so program
  /// constants and facts intern to the same ids).
  explicit Database(std::shared_ptr<SymbolTable> symbols)
      : symbols_(std::move(symbols)) {
    INFLOG_CHECK(symbols_ != nullptr);
  }

  /// The shared symbol table.
  SymbolTable& symbols() { return *symbols_; }
  const SymbolTable& symbols() const { return *symbols_; }
  std::shared_ptr<SymbolTable> shared_symbols() const { return symbols_; }

  /// Declares a relation with the given arity. Re-declaring with the same
  /// arity is a no-op; with a different arity it is an error.
  Status DeclareRelation(std::string_view name, size_t arity);

  /// Adds `value` to the universe (idempotent).
  void AddUniverseValue(Value value);

  /// Interns `name` and adds it to the universe.
  Value AddUniverseSymbol(std::string_view name);

  /// Interns the decimal rendering of `n` and adds it to the universe.
  Value AddUniverseInt(int64_t n) {
    const Value v = symbols_->InternInt(n);
    AddUniverseValue(v);
    return v;
  }

  /// Inserts a fact, declaring the relation on first use (with the fact's
  /// arity) and adding the fact's constants to the universe. Returns an
  /// error on arity mismatch with an existing declaration.
  Status AddFact(std::string_view relation, TupleView tuple);

  /// Convenience: AddFact with named constants, interning each.
  Status AddFactNamed(std::string_view relation,
                      const std::vector<std::string>& constants);

  /// Merges `other` into this database: its universe values, relation
  /// declarations (created on first sight), and facts. A relation present
  /// in both with different arities is an error (this database is left
  /// partially merged in that case — snapshot first if that matters).
  /// The databases may use different symbol tables; values are then
  /// re-interned by name.
  Status MergeFrom(const Database& other);

  /// The relation named `name`, or NotFound.
  Result<const Relation*> GetRelation(std::string_view name) const;

  /// Mutable access to the relation named `name`, or NotFound. The
  /// incremental maintainer applies EDB updates through this (AddFact for
  /// inserts so new constants join the universe, Relation::Erase for
  /// deletes — the universe, being the *active domain plus history*,
  /// never shrinks, matching what a from-scratch evaluation of this
  /// database object would quantify over).
  Result<Relation*> MutableRelation(std::string_view name);

  /// True iff a relation named `name` has been declared. Heterogeneous
  /// lookup: never allocates.
  bool HasRelation(std::string_view name) const {
    return relations_.find(name) != relations_.end();
  }

  /// All declared relation names in lexicographic order.
  std::vector<std::string> RelationNames() const;

  /// The universe, in insertion order (deterministic).
  const std::vector<Value>& universe() const { return universe_; }

  /// True iff `value` is in the universe.
  bool InUniverse(Value value) const {
    return universe_set_.find(value) != universe_set_.end();
  }

  /// The universe followed by each of `constants` that is not in it, in
  /// the given order: the evaluation universe a program's variables range
  /// over. `constants` must be duplicate-free, as Program::Constants() is.
  std::vector<Value> UniverseWith(const std::vector<Value>& constants) const;

  /// Renders every relation plus the universe, for debugging and goldens.
  std::string ToString() const;

  /// This object's current state. It changes on every mutation, a write
  /// through a MutableRelation pointer included, and two objects never
  /// share one: a copy starts with its own identity. Within one `version`
  /// the set of relations is fixed and each relation's version only
  /// grows, so `contents` tells their states apart. A mutation bumps a
  /// plain counter, no atomic operation; the call sums every relation's
  /// version.
  DatabaseGeneration generation() const;

 private:
  // Stamps this object's states. Construction draws a fresh identity
  // from a process-wide counter; a copy or move gets its own, and
  // assignment into the object, or a move out of it, bumps the version.
  class Stamp {
   public:
    Stamp() : identity_(NextIdentity()) {}
    Stamp(const Stamp&) : Stamp() {}
    Stamp(Stamp&& other) noexcept : Stamp() { other.Bump(); }
    Stamp& operator=(const Stamp&) {
      Bump();
      return *this;
    }
    Stamp& operator=(Stamp&& other) noexcept {
      Bump();
      other.Bump();
      return *this;
    }
    void Bump() { ++version_; }
    DatabaseGeneration Get() const { return {identity_, version_}; }

   private:
    static uint64_t NextIdentity();
    uint64_t identity_;
    uint64_t version_ = 0;
  };

  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Value> universe_;
  std::unordered_set<Value> universe_set_;
  std::map<std::string, Relation, std::less<>> relations_;
  Stamp stamp_;
};

}  // namespace inflog

#endif  // INFLOG_RELATION_DATABASE_H_
