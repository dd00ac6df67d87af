#include "src/serve/query.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <span>
#include <utility>

#include "src/base/strings.h"

namespace inflog {
namespace serve {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

Result<ServeQuery> ParseServeQuery(std::string_view line,
                                   const SymbolTable& symbols) {
  ServeQuery query;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '?') {
    return Status::InvalidArgument(
        StrCat("query must start with '?': ", std::string(line)));
  }
  ++i;
  // Named-variable name -> dense id (appearance order); anonymous `_`
  // terms get fresh ids and never join output_vars.
  std::map<std::string, uint32_t, std::less<>> named;
  while (true) {
    skip_ws();
    const size_t name_start = i;
    while (i < line.size() && IsIdentChar(line[i])) ++i;
    if (i == name_start) {
      return Status::InvalidArgument(
          StrCat("expected a relation name at column ", i + 1, " of query: ",
                 std::string(line)));
    }
    ServeAtom atom;
    atom.predicate = std::string(line.substr(name_start, i - name_start));
    if (i >= line.size() || line[i] != '(') {
      return Status::InvalidArgument(
          StrCat("expected '(' after relation name ", atom.predicate));
    }
    ++i;
    std::string key_atom = StrCat(atom.predicate, "(");
    bool first_term = true;
    skip_ws();
    if (i < line.size() && line[i] == ')') {
      ++i;  // zero-arity atom
    } else {
      while (true) {
        skip_ws();
        const size_t term_start = i;
        while (i < line.size() && line[i] != ',' && line[i] != ')' &&
               std::isspace(static_cast<unsigned char>(line[i])) == 0) {
          ++i;
        }
        if (i == term_start) {
          return Status::InvalidArgument(
              StrCat("empty term in query atom ", atom.predicate));
        }
        const std::string_view token = line.substr(term_start, i - term_start);
        ServeTerm term;
        const char c0 = token.front();
        if (std::isupper(static_cast<unsigned char>(c0)) || c0 == '_') {
          term.is_var = true;
          if (token == "_") {
            term.var = query.num_vars++;
            key_atom += first_term ? "_" : ",_";
          } else {
            const auto it = named.find(token);
            if (it != named.end()) {
              term.var = it->second;
            } else {
              term.var = query.num_vars++;
              named.emplace(std::string(token), term.var);
              query.output_vars.push_back(term.var);
              query.output_names.emplace_back(token);
            }
            // Positional rename: the k-th distinct named variable is $k.
            size_t pos = 0;
            while (query.output_vars[pos] != term.var) ++pos;
            key_atom += StrCat(first_term ? "$" : ",$", pos);
          }
        } else {
          term.constant = symbols.Find(token);  // kNoValue: matches nothing
          key_atom += StrCat(first_term ? "" : ",", std::string(token));
        }
        atom.terms.push_back(term);
        first_term = false;
        skip_ws();
        if (i < line.size() && line[i] == ',') {
          ++i;
          continue;
        }
        if (i < line.size() && line[i] == ')') {
          ++i;
          break;
        }
        return Status::InvalidArgument(
            StrCat("unterminated atom in query: ", std::string(line)));
      }
    }
    key_atom += ")";
    query.key += query.atoms.empty() ? key_atom : StrCat(",", key_atom);
    query.support.push_back(atom.predicate);
    query.atoms.push_back(std::move(atom));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_ws();
  if (i < line.size() && line[i] != '#') {
    return Status::InvalidArgument(
        StrCat("trailing garbage after query: ", std::string(line)));
  }
  std::sort(query.support.begin(), query.support.end());
  query.support.erase(
      std::unique(query.support.begin(), query.support.end()),
      query.support.end());
  return query;
}

namespace {

/// Backtracking index-nested-loop join over sealed relations. Every read
/// is pure (the snapshot sealed all column indexes), so concurrent
/// evaluations share relations freely.
class QueryJoiner {
 public:
  QueryJoiner(const ServeQuery& query,
              const std::vector<const Relation*>& rels, Relation* out)
      : query_(query),
        rels_(rels),
        out_(out),
        binding_(query.num_vars, kNoValue) {}

  /// True iff at least one full match was found (the ground-query
  /// answer); `out_` accumulates the projected bindings.
  bool Run() { return Join(0); }

 private:
  bool Join(size_t ai) {
    if (ai == query_.atoms.size()) {
      if (query_.num_vars != 0) {
        Tuple row(query_.output_vars.size());
        for (size_t k = 0; k < query_.output_vars.size(); ++k) {
          row[k] = binding_[query_.output_vars[k]];
        }
        out_->Insert(row);
      }
      return true;
    }
    const ServeAtom& atom = query_.atoms[ai];
    const Relation& rel = *rels_[ai];
    const size_t arity = atom.terms.size();
    // Resolve each column: a constant or an already-bound variable gives
    // a probe value; anything else stays open for this atom to bind.
    bool all_bound = true;
    size_t probe_col = arity;  // first bound column, if any
    Tuple probe(arity, kNoValue);
    for (size_t col = 0; col < arity; ++col) {
      const ServeTerm& t = atom.terms[col];
      const Value v = t.is_var ? binding_[t.var] : t.constant;
      if (t.is_var && v == kNoValue) {
        all_bound = false;
        continue;
      }
      if (!t.is_var && v == kNoValue) return false;  // unknown constant
      probe[col] = v;
      if (probe_col == arity) probe_col = col;
    }
    if (all_bound) {
      return rel.Contains(probe) && Join(ai + 1);
    }
    bool any = false;
    if (probe_col < arity) {
      // Indexed path: walk the per-shard postings of the first bound
      // column in shard-major ascending order (deterministic).
      std::vector<std::span<const uint32_t>> spans(rel.num_shards());
      rel.EqualRowsPerShard(probe_col, probe[probe_col], spans.data());
      for (size_t s = 0; s < rel.num_shards(); ++s) {
        const Relation::ShardView view = rel.shard(s);
        for (const uint32_t row : spans[s]) {
          any |= TryRow(ai, view.Row(row));
        }
      }
    } else {
      for (size_t s = 0; s < rel.num_shards(); ++s) {
        const Relation::ShardView view = rel.shard(s);
        for (size_t row = 0; row < view.size(); ++row) {
          if (!view.IsLive(row)) continue;
          any |= TryRow(ai, view.Row(row));
        }
      }
    }
    return any;
  }

  /// Matches one candidate row against atom `ai`, binding its open
  /// variables; recurses on success and always restores the bindings.
  /// Variable ids follow first appearance and atoms join in written
  /// order, so the variables one row binds are the consecutive ids
  /// [first, first + num_bound).
  bool TryRow(size_t ai, TupleView row) {
    const ServeAtom& atom = query_.atoms[ai];
    uint32_t first = 0;
    uint32_t num_bound = 0;
    bool match = true;
    for (size_t col = 0; col < atom.terms.size() && match; ++col) {
      const ServeTerm& t = atom.terms[col];
      if (!t.is_var) {
        match = row[col] == t.constant;
      } else if (binding_[t.var] != kNoValue) {
        match = row[col] == binding_[t.var];
      } else {
        binding_[t.var] = row[col];
        if (num_bound++ == 0) first = t.var;
      }
    }
    const bool any = match && Join(ai + 1);
    std::fill_n(binding_.begin() + first, num_bound, kNoValue);
    return any;
  }

  const ServeQuery& query_;
  const std::vector<const Relation*>& rels_;
  Relation* out_;
  std::vector<Value> binding_;
};

}  // namespace

Result<ServeAnswer> EvalServeQuery(const ServeQuery& query,
                                   const Program& program,
                                   const DatabaseSnapshot& snapshot) {
  std::vector<const Relation*> rels;
  rels.reserve(query.atoms.size());
  for (const ServeAtom& atom : query.atoms) {
    INFLOG_ASSIGN_OR_RETURN(const Relation* rel,
                            snapshot.Find(program, atom.predicate));
    if (rel->arity() != atom.terms.size()) {
      return Status::InvalidArgument(
          StrCat("query atom ", atom.predicate, " has ", atom.terms.size(),
                 " terms, relation has arity ", rel->arity()));
    }
    rels.push_back(rel);
  }
  ServeAnswer answer;
  answer.ground = query.ground();
  Relation out(query.output_vars.size());
  QueryJoiner joiner(query, rels, &out);
  const bool any = joiner.Run();
  if (answer.ground) {
    answer.truth = any;
    answer.rendered = any ? "true" : "false";
  } else {
    answer.rows = out.SortedTuples();
    answer.rendered = out.ToString(snapshot.symbols());
  }
  return answer;
}

}  // namespace serve
}  // namespace inflog
