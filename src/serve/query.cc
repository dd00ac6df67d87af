#include "src/serve/query.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/ast/lexer.h"
#include "src/base/strings.h"

namespace inflog {
namespace serve {

Result<ServeQuery> ParseServeQuery(std::string_view line,
                                   const SymbolTable& symbols) {
  ServeQuery query;
  query.key.reserve(line.size());
  TokenStream in(line);
  INFLOG_RETURN_IF_ERROR(in.Expect(TokenKind::kQuery, "'?'"));
  do {
    const Token name = in.Take();
    if (name.kind != TokenKind::kConstant &&
        name.kind != TokenKind::kVariable) {
      return TokenStream::Err(name, "expected a relation name");
    }
    INFLOG_RETURN_IF_ERROR(
        in.Expect(TokenKind::kLParen, "'(' after the relation name"));
    ServeAtom atom;
    atom.predicate = name.text;
    if (!query.atoms.empty()) query.key += ',';
    query.key += name.text;
    query.key += '(';
    if (!in.TakeIf(TokenKind::kRParen)) {
      do {
        if (!atom.terms.empty()) query.key += ',';
        const Token tok = in.Take();
        ServeTerm& term = atom.terms.emplace_back();
        term.is_var = tok.kind == TokenKind::kVariable;
        if (tok.kind == TokenKind::kConstant) {
          term.constant = symbols.Find(tok.text);  // kNoValue: matches nothing
          AppendConstant(tok.text, &query.key);
        } else if (!term.is_var) {
          return TokenStream::Err(tok, "expected a term");
        } else if (tok.text == "_") {
          // Anonymous: a fresh variable, never output.
          term.var = query.num_vars++;
          query.key += '_';
        } else {
          // Positional rename: the k-th distinct named variable is $k.
          size_t k = 0;
          while (k < query.output_names.size() &&
                 query.output_names[k] != tok.text) {
            ++k;
          }
          if (k == query.output_names.size()) {
            query.output_vars.push_back(query.num_vars++);
            query.output_names.emplace_back(tok.text);
          }
          term.var = query.output_vars[k];
          query.key += '$';
          query.key += std::to_string(k);
        }
      } while (in.TakeIf(TokenKind::kComma));
      INFLOG_RETURN_IF_ERROR(in.Expect(TokenKind::kRParen, "')'"));
    }
    query.key += ')';
    query.support.push_back(atom.predicate);
    query.atoms.push_back(std::move(atom));
  } while (in.TakeIf(TokenKind::kComma));
  if (in.Peek().kind != TokenKind::kEof) {
    return TokenStream::Err(in.Peek(), "expected ',' or the end of the query");
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
