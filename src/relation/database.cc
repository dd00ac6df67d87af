#include "src/relation/database.h"

#include <atomic>

#include "src/base/strings.h"

namespace inflog {

uint64_t Database::Stamp::NextIdentity() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status Database::DeclareRelation(std::string_view name, size_t arity) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.arity() != arity) {
      return Status::InvalidArgument(
          StrCat("relation ", name, " re-declared with arity ", arity,
                 " (was ", it->second.arity(), ")"));
    }
    return Status::OK();
  }
  relations_.emplace(std::string(name), Relation(arity));
  stamp_.Bump();
  return Status::OK();
}

void Database::AddUniverseValue(Value value) {
  if (universe_set_.insert(value).second) {
    universe_.push_back(value);
    stamp_.Bump();
  }
}

std::vector<Value> Database::UniverseWith(
    const std::vector<Value>& constants) const {
  std::vector<Value> out = universe_;
  for (const Value v : constants) {
    if (!InUniverse(v)) out.push_back(v);
  }
  return out;
}

Value Database::AddUniverseSymbol(std::string_view name) {
  const Value v = symbols_->Intern(name);
  AddUniverseValue(v);
  return v;
}

Status Database::AddFact(std::string_view relation, TupleView tuple) {
  INFLOG_RETURN_IF_ERROR(DeclareRelation(relation, tuple.size()));
  for (Value v : tuple) {
    INFLOG_CHECK(v < symbols_->size()) << "fact uses un-interned value";
    AddUniverseValue(v);
  }
  relations_.find(relation)->second.Insert(tuple);
  return Status::OK();
}

Status Database::AddFactNamed(std::string_view relation,
                              const std::vector<std::string>& constants) {
  Tuple tuple;
  tuple.reserve(constants.size());
  for (const std::string& c : constants) {
    tuple.push_back(symbols_->Intern(c));
  }
  return AddFact(relation, tuple);
}

Status Database::MergeFrom(const Database& other) {
  if (&other == this) return Status::OK();
  const bool same_symbols = other.symbols_ == symbols_;
  if (same_symbols) {
    for (Value v : other.universe_) AddUniverseValue(v);
  } else {
    for (Value v : other.universe_) {
      AddUniverseValue(symbols_->Intern(other.symbols_->Name(v)));
    }
  }
  for (const auto& [name, rel] : other.relations_) {
    INFLOG_RETURN_IF_ERROR(DeclareRelation(name, rel.arity()));
    Relation& dst = relations_.find(name)->second;
    if (same_symbols) {
      dst.InsertAll(rel);
      continue;
    }
    // Re-intern tuple values name-by-name into this table.
    Tuple tuple(rel.arity());
    for (size_t s = 0; s < rel.num_shards(); ++s) {
      const Relation::ShardView view = rel.shard(s);
      for (size_t r = 0; r < view.size(); ++r) {
        if (!view.IsLive(r)) continue;
        const TupleView row = view.Row(r);
        for (size_t i = 0; i < row.size(); ++i) {
          tuple[i] = symbols_->Intern(other.symbols_->Name(row[i]));
        }
        dst.Insert(tuple);
      }
    }
  }
  return Status::OK();
}

Result<const Relation*> Database::GetRelation(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("no relation named ", name));
  }
  return &it->second;
}

Result<Relation*> Database::MutableRelation(std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("no relation named ", name));
  }
  return &it->second;
}

DatabaseGeneration Database::generation() const {
  DatabaseGeneration generation = stamp_.Get();
  for (const auto& [name, rel] : relations_) {
    generation.contents += rel.version();
  }
  return generation;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

std::string Database::ToString() const {
  std::string out = "universe: {";
  for (size_t i = 0; i < universe_.size(); ++i) {
    if (i > 0) out += ",";
    AppendConstant(symbols_->Name(universe_[i]), &out);
  }
  out += "}\n";
  for (const auto& [name, rel] : relations_) {
    out += StrCat(name, "/", rel.arity(), " = ", rel.ToString(*symbols_),
                  "\n");
  }
  return out;
}

}  // namespace inflog
