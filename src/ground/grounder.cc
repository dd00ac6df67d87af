#include "src/ground/grounder.h"

#include <algorithm>
#include <unordered_set>

#include "src/ast/analysis.h"
#include "src/base/strings.h"

namespace inflog {
namespace {

/// Grounding op codes, mirroring the evaluation planner but with IDB
/// literals treated as opaque (they are instantiated, never joined).
struct GroundOp {
  enum class Kind {
    kMatchEdb,      // join with a positive EDB atom (scan + pattern match)
    kBindEq,        // bind a variable from an equality
    kFilterEq,      // both sides bound
    kFilterNeq,     // both sides bound
    kFilterNegEdb,  // fully bound negated EDB atom: fail if present
    kEnumerate,     // bind a variable to each universe element
  };
  Kind kind;
  const Relation* relation = nullptr;  // kMatchEdb / kFilterNegEdb
  std::vector<Term> args;              // kMatchEdb / kFilterNegEdb
  uint32_t target_var = 0;             // kBindEq
  Term source = Term::Const(0);        // kBindEq
  Term lhs = Term::Const(0), rhs = Term::Const(0);  // filters
  uint32_t enum_var = 0;               // kEnumerate
};

/// Grounds a subset of one rule's body literals: the whole body, one
/// existential component (src/ast/analysis.h), or the rest of the body
/// once the components are projected away.
class RuleGrounder {
 public:
  RuleGrounder(const Program& program, const Rule& rule,
               std::vector<size_t> literals,
               const std::vector<const Relation*>& edb_relations,
               const std::vector<Value>& universe,
               const GrounderOptions& options,
               std::unordered_set<uint64_t>* seen_rules, GroundProgram* out)
      : program_(program),
        rule_(rule),
        literals_(std::move(literals)),
        edb_relations_(edb_relations),
        universe_(universe),
        options_(options),
        seen_rules_(seen_rules),
        out_(out) {}

  /// Emits one ground rule per instantiation of the rule head over the
  /// literals, each body extended by the positive atoms `extra_pos`.
  Status Ground(std::vector<uint32_t> extra_pos) {
    extra_pos_ = std::move(extra_pos);
    return Run(Mode::kRules);
  }

  /// Collects the distinct ground bodies of the literals' instantiations
  /// (an existential component's definition) into `bodies`, checking
  /// the rule limit as if each body were already a rule. An EDB-only
  /// component yields the empty body when it has a witness.
  Status GroundBodies(std::vector<uint32_t>* bodies) {
    bodies_ = bodies;
    return Run(Mode::kBodies);
  }

 private:
  enum class Mode { kRules, kBodies };

  Status Run(Mode mode) {
    mode_ = mode;
    // A head or literal variable must be bound to instantiate; the head
    // only counts when it is emitted.
    needed_.assign(rule_.num_vars, false);
    if (mode == Mode::kRules) MarkVars(rule_.head.args);
    for (size_t i : literals_) MarkVars(rule_.body[i].args);
    bound_.assign(rule_.num_vars, false);
    if (!PlanOps()) return Status::OK();  // statically unsatisfiable body
    bindings_.assign(rule_.num_vars, kNoValue);
    return Step(0);
  }

  void MarkVars(const std::vector<Term>& args) {
    for (const Term& t : args) {
      if (t.IsVariable()) needed_[t.id] = true;
    }
  }

  bool TermKnown(const Term& t) const {
    return t.IsConstant() || bound_[t.id];
  }

  bool IsEdb(uint32_t pred) const {
    return !program_.predicate(pred).is_idb;
  }

  /// Builds the op order. Returns false when the body is statically
  /// unsatisfiable (constant (in)equalities).
  bool PlanOps() {
    std::vector<size_t> edb_atoms;
    std::vector<size_t> filters;  // eq / neq / negated EDB atoms
    for (size_t i : literals_) {
      const Literal& lit = rule_.body[i];
      switch (lit.kind) {
        case Literal::Kind::kAtom:
          if (IsEdb(lit.predicate)) edb_atoms.push_back(i);
          break;
        case Literal::Kind::kNegAtom:
          if (IsEdb(lit.predicate)) filters.push_back(i);
          break;
        case Literal::Kind::kEq:
        case Literal::Kind::kNeq:
          filters.push_back(i);
          break;
      }
    }
    if (!FlushFilters(&filters)) return false;
    while (!edb_atoms.empty()) {
      const size_t best = PopBestAtom(&edb_atoms);
      EmitMatch(rule_.body[best]);
      if (!FlushFilters(&filters)) return false;
    }
    // Residual: every remaining needed variable must be bound to
    // instantiate the head and the IDB literals.
    while (true) {
      if (!FlushFilters(&filters)) return false;
      int var = -1;
      for (size_t f : filters) {
        for (const Term& t : rule_.body[f].args) {
          if (t.IsVariable() && !bound_[t.id]) {
            var = static_cast<int>(t.id);
            break;
          }
        }
        if (var >= 0) break;
      }
      if (var < 0) {
        for (uint32_t v = 0; v < rule_.num_vars; ++v) {
          if (needed_[v] && !bound_[v]) {
            var = static_cast<int>(v);
            break;
          }
        }
      }
      if (var < 0) break;
      GroundOp op;
      op.kind = GroundOp::Kind::kEnumerate;
      op.enum_var = static_cast<uint32_t>(var);
      ops_.push_back(op);
      bound_[var] = true;
    }
    INFLOG_CHECK(filters.empty());
    return true;
  }

  void EmitMatch(const Literal& lit) {
    GroundOp op;
    op.kind = GroundOp::Kind::kMatchEdb;
    op.relation = edb_relations_[lit.predicate];
    op.args = lit.args;
    ops_.push_back(op);
    for (const Term& t : lit.args) {
      if (t.IsVariable()) bound_[t.id] = true;
    }
  }

  bool FlushFilters(std::vector<size_t>* filters) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = filters->begin(); it != filters->end();) {
        const Literal& lit = rule_.body[*it];
        bool placed = false;
        if (lit.kind == Literal::Kind::kEq) {
          const Term &a = lit.args[0], &b = lit.args[1];
          if (a.IsConstant() && b.IsConstant()) {
            if (a.id != b.id) return false;
            placed = true;
          } else if (TermKnown(a) && TermKnown(b)) {
            ops_.push_back(
                GroundOp{GroundOp::Kind::kFilterEq, nullptr, {}, 0,
                         Term::Const(0), a, b, 0});
            placed = true;
          } else if (TermKnown(a) && b.IsVariable()) {
            EmitBind(b.id, a);
            placed = true;
          } else if (TermKnown(b) && a.IsVariable()) {
            EmitBind(a.id, b);
            placed = true;
          }
        } else if (lit.kind == Literal::Kind::kNeq) {
          const Term &a = lit.args[0], &b = lit.args[1];
          if (a.IsConstant() && b.IsConstant()) {
            if (a.id == b.id) return false;
            placed = true;
          } else if (TermKnown(a) && TermKnown(b)) {
            ops_.push_back(
                GroundOp{GroundOp::Kind::kFilterNeq, nullptr, {}, 0,
                         Term::Const(0), a, b, 0});
            placed = true;
          }
        } else {  // negated EDB atom
          bool all_known = true;
          for (const Term& t : lit.args) all_known &= TermKnown(t);
          if (all_known) {
            GroundOp op;
            op.kind = GroundOp::Kind::kFilterNegEdb;
            op.relation = edb_relations_[lit.predicate];
            op.args = lit.args;
            ops_.push_back(std::move(op));
            placed = true;
          }
        }
        if (placed) {
          it = filters->erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    return true;
  }

  void EmitBind(uint32_t var, const Term& source) {
    GroundOp op;
    op.kind = GroundOp::Kind::kBindEq;
    op.target_var = var;
    op.source = source;
    ops_.push_back(std::move(op));
    bound_[var] = true;
  }

  size_t PopBestAtom(std::vector<size_t>* atoms) {
    size_t best_pos = 0;
    int best_known = -1;
    for (size_t pos = 0; pos < atoms->size(); ++pos) {
      const Literal& lit = rule_.body[(*atoms)[pos]];
      int known = 0;
      for (const Term& t : lit.args) known += TermKnown(t) ? 1 : 0;
      if (known > best_known) {
        best_known = known;
        best_pos = pos;
      }
    }
    const size_t body_index = (*atoms)[best_pos];
    atoms->erase(atoms->begin() + best_pos);
    return body_index;
  }

  Value TermValue(const Term& t) const {
    if (t.IsConstant()) return t.id;
    INFLOG_DCHECK(bindings_[t.id] != kNoValue);
    return bindings_[t.id];
  }

  Status Step(size_t op_index) {
    if (op_index == ops_.size()) return EmitGroundRule();
    const GroundOp& op = ops_[op_index];
    switch (op.kind) {
      case GroundOp::Kind::kMatchEdb: {
        const Relation& rel = *op.relation;
        std::vector<uint32_t> trail;
        for (size_t s = 0; s < rel.num_shards(); ++s) {
          const Relation::ShardView view = rel.shard(s);
          for (size_t r = 0; r < view.size(); ++r) {
            if (!view.IsLive(r)) continue;  // EDB facts erased by updates
            if (MatchRow(op.args, view.Row(r), &trail)) {
              INFLOG_RETURN_IF_ERROR(Step(op_index + 1));
              for (uint32_t v : trail) bindings_[v] = kNoValue;
              trail.clear();
            }
          }
        }
        return Status::OK();
      }
      case GroundOp::Kind::kBindEq: {
        bindings_[op.target_var] = TermValue(op.source);
        INFLOG_RETURN_IF_ERROR(Step(op_index + 1));
        bindings_[op.target_var] = kNoValue;
        return Status::OK();
      }
      case GroundOp::Kind::kFilterEq:
        if (TermValue(op.lhs) == TermValue(op.rhs)) return Step(op_index + 1);
        return Status::OK();
      case GroundOp::Kind::kFilterNeq:
        if (TermValue(op.lhs) != TermValue(op.rhs)) return Step(op_index + 1);
        return Status::OK();
      case GroundOp::Kind::kFilterNegEdb: {
        scratch_.clear();
        for (const Term& t : op.args) scratch_.push_back(TermValue(t));
        if (!op.relation->Contains(scratch_)) return Step(op_index + 1);
        return Status::OK();
      }
      case GroundOp::Kind::kEnumerate: {
        for (Value v : universe_) {
          bindings_[op.enum_var] = v;
          INFLOG_RETURN_IF_ERROR(Step(op_index + 1));
        }
        bindings_[op.enum_var] = kNoValue;
        return Status::OK();
      }
    }
    return Status::Internal("unreachable ground op");
  }

  bool MatchRow(const std::vector<Term>& args, TupleView row,
                std::vector<uint32_t>* trail) {
    for (size_t i = 0; i < args.size(); ++i) {
      const Term& t = args[i];
      if (t.IsConstant()) {
        if (row[i] != t.id) return Undo(trail);
      } else if (bindings_[t.id] != kNoValue) {
        if (row[i] != bindings_[t.id]) return Undo(trail);
      } else {
        bindings_[t.id] = row[i];
        trail->push_back(t.id);
      }
    }
    return true;
  }

  bool Undo(std::vector<uint32_t>* trail) {
    for (uint32_t v : *trail) bindings_[v] = kNoValue;
    trail->clear();
    return false;
  }

  Status EmitGroundRule() {
    uint32_t head = 0;
    if (mode_ == Mode::kRules) {
      scratch_.clear();
      for (const Term& t : rule_.head.args) scratch_.push_back(TermValue(t));
      head = out_->atoms.GetOrAdd(rule_.head.predicate, scratch_);
    }
    GroundBody body;
    body.pos = extra_pos_;
    for (size_t i : literals_) {
      const Literal& lit = rule_.body[i];
      if (lit.kind != Literal::Kind::kAtom &&
          lit.kind != Literal::Kind::kNegAtom) {
        continue;
      }
      if (IsEdb(lit.predicate)) continue;  // already evaluated away
      scratch_.clear();
      for (const Term& t : lit.args) scratch_.push_back(TermValue(t));
      const uint32_t atom = out_->atoms.GetOrAdd(lit.predicate, scratch_);
      if (lit.kind == Literal::Kind::kAtom) {
        body.pos.push_back(atom);
      } else {
        body.neg.push_back(atom);
      }
    }
    auto canonicalize = [](std::vector<uint32_t>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    canonicalize(&body.pos);
    canonicalize(&body.neg);
    const uint32_t body_id = out_->bodies.GetOrAdd(std::move(body));
    size_t count;
    if (mode_ == Mode::kBodies) {
      if (!seen_bodies_.insert(body_id).second) return Status::OK();
      bodies_->push_back(body_id);
      count = out_->rules.size() + bodies_->size();
    } else {
      // Deduplicate (head, body) pairs cheaply.
      const uint64_t key = (uint64_t{head} << 32) | body_id;
      if (!seen_rules_->insert(key).second) return Status::OK();
      out_->rules.push_back(GroundRule{head, body_id});
      count = out_->rules.size();
    }
    if (count > options_.max_ground_rules) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeded ", options_.max_ground_rules,
                 " rules"));
    }
    return Status::OK();
  }

  const Program& program_;
  const Rule& rule_;
  /// Body indices of the literals this grounder instantiates.
  const std::vector<size_t> literals_;
  const std::vector<const Relation*>& edb_relations_;
  const std::vector<Value>& universe_;
  const GrounderOptions& options_;
  std::unordered_set<uint64_t>* seen_rules_;
  GroundProgram* out_;

  Mode mode_ = Mode::kRules;
  std::vector<uint32_t> extra_pos_;            // kRules
  std::vector<uint32_t>* bodies_ = nullptr;    // kBodies
  std::unordered_set<uint32_t> seen_bodies_;   // kBodies

  std::vector<GroundOp> ops_;
  std::vector<bool> needed_;
  std::vector<bool> bound_;
  std::vector<Value> bindings_;
  Tuple scratch_;
};

}  // namespace

Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& database,
                                       const GrounderOptions& options) {
  // Resolve EDB relations (by predicate id).
  static const Relation kEmpty0(0);
  std::vector<std::unique_ptr<Relation>> empties;
  std::vector<const Relation*> edb(program.num_predicates(), nullptr);
  for (uint32_t pred = 0; pred < program.num_predicates(); ++pred) {
    const PredicateInfo& info = program.predicate(pred);
    if (info.is_idb) continue;
    auto rel = database.GetRelation(info.name);
    if (!rel.ok()) {
      if (!options.allow_missing_edb) {
        return Status::NotFound(
            StrCat("EDB relation ", info.name,
                   " is not present in the database"));
      }
      empties.push_back(std::make_unique<Relation>(info.arity));
      edb[pred] = empties.back().get();
      continue;
    }
    if ((*rel)->arity() != info.arity) {
      return Status::InvalidArgument(
          StrCat("EDB relation ", info.name, " has arity ", (*rel)->arity(),
                 " in the database but ", info.arity, " in the program"));
    }
    edb[pred] = *rel;
  }

  // Evaluation universe: active domain plus program constants.
  const std::vector<Value> universe =
      database.UniverseWith(program.Constants());

  GroundProgram out;
  std::unordered_set<uint64_t> seen_rules;
  for (uint32_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    const auto grounder = [&](std::vector<size_t> literals) {
      return RuleGrounder(program, rule, std::move(literals), edb, universe,
                          options, &seen_rules, &out);
    };
    // Project the existential components: each is grounded on its own
    // into its distinct bodies. A component with none has no witness, so
    // no instance of the rule survives; one whose only body is empty (an
    // EDB-only component with a witness) holds outright; any other
    // becomes an auxiliary atom defined by one rule per body. The rest of
    // the body is then instantiated once per binding of its own variables.
    const std::vector<std::vector<size_t>> components =
        ExistentialComponents(rule);
    std::vector<std::vector<uint32_t>> bodies(components.size());
    bool has_witness = true;
    for (size_t c = 0; c < components.size() && has_witness; ++c) {
      INFLOG_RETURN_IF_ERROR(grounder(components[c]).GroundBodies(&bodies[c]));
      has_witness = !bodies[c].empty();
    }
    if (!has_witness) continue;
    const size_t num_rules = out.rules.size();
    std::vector<bool> projected(rule.body.size(), false);
    std::vector<uint32_t> aux_atoms;
    for (uint32_t c = 0; c < components.size(); ++c) {
      for (size_t i : components[c]) projected[i] = true;
      if (bodies[c].size() == 1 && out.bodies.body(bodies[c][0]).empty()) {
        continue;
      }
      // Interned after the component's own atoms, so an auxiliary atom
      // never precedes an atom it depends on.
      const uint32_t aux =
          out.atoms.GetOrAdd(kAuxiliaryPredicate, Tuple{r, c});
      for (uint32_t body : bodies[c]) out.rules.push_back(GroundRule{aux, body});
      aux_atoms.push_back(aux);
    }
    std::vector<size_t> rest;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!projected[i]) rest.push_back(i);
    }
    const size_t aux_end = out.rules.size();
    INFLOG_RETURN_IF_ERROR(
        grounder(std::move(rest)).Ground(std::move(aux_atoms)));
    // No instance of the rest: nothing uses the auxiliary atoms.
    if (out.rules.size() == aux_end) out.rules.resize(num_rules);
  }
  out.IndexHeads();
  return out;
}

}  // namespace inflog
