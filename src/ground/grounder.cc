#include "src/ground/grounder.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "src/ast/analysis.h"
#include "src/base/strings.h"
#include "src/eval/executor.h"
#include "src/eval/plan.h"

namespace inflog {
namespace {

/// One part of a rule the grounder instantiates: the whole body, one
/// existential component (src/ast/analysis.h), or the rest of the body
/// once the components are projected away.
struct Part {
  /// Body indices of the part's IDB literals, which its instances keep.
  std::vector<size_t> idb_literals;
  /// The variables an instance needs (the head's, unless the part is a
  /// component, and its IDB literals') that the part's EDB literals and
  /// (in)equalities bind, by id: the columns of its binding rule.
  std::vector<uint32_t> bound;
  /// The other variables an instance needs, by id: each binding is
  /// extended by every assignment of them over the universe.
  std::vector<uint32_t> free;
  /// The part's binding rule in the instantiation program, or -1 when the
  /// part has no EDB literal or (in)equality: its one binding is empty.
  int binding_rule = -1;
};

bool IsIdbLiteral(const Program& program, const Literal& lit) {
  return (lit.IsPositiveAtom() || lit.IsNegatedAtom()) &&
         program.predicate(lit.predicate).is_idb;
}

/// Splits the body literals `literals` of `rule` into a Part. A part with
/// EDB literals or (in)equalities gets its binding rule
/// #g<k>(bound) :- <those literals>, appended to `instantiation`.
Part MakePart(const Program& program, const Rule& rule,
              const std::vector<size_t>& literals, bool with_head,
              Program* instantiation) {
  // Per variable: kNeeded when an instance needs it, kBound when the
  // binding rule binds it.
  constexpr uint8_t kNeeded = 1, kBound = 2;
  std::vector<uint8_t> role(rule.num_vars, 0);
  const auto mark = [&role](const std::vector<Term>& args, uint8_t as) {
    for (const Term& t : args) {
      if (t.IsVariable()) role[t.id] |= as;
    }
  };
  if (with_head) mark(rule.head.args, kNeeded);
  Part part;
  Rule binding;
  for (size_t i : literals) {
    const Literal& lit = rule.body[i];
    if (IsIdbLiteral(program, lit)) {
      part.idb_literals.push_back(i);
      mark(lit.args, kNeeded);
    } else {
      binding.body.push_back(lit);
      mark(lit.args, kBound);
    }
  }
  for (uint32_t v = 0; v < rule.num_vars; ++v) {
    if (role[v] & kNeeded) {
      ((role[v] & kBound) ? part.bound : part.free).push_back(v);
    }
  }
  if (binding.body.empty()) return part;
  part.binding_rule = static_cast<int>(instantiation->rules().size());
  binding.head.predicate = *instantiation->GetOrAddPredicate(
      "#g" + std::to_string(part.binding_rule), part.bound.size());
  for (uint32_t v : part.bound) binding.head.args.push_back(Term::Var(v));
  binding.num_vars = rule.num_vars;
  binding.var_names = rule.var_names;
  INFLOG_CHECK(instantiation->AddRule(std::move(binding)).ok());
  return part;
}

/// A set of 64-bit keys (no key may be ~0): open addressing with linear
/// probing, kept at most half full. Checks each emitted (head, body) pair
/// without a node allocation per rule.
class KeySet {
 public:
  /// Inserts `key`; false when it was already present.
  bool Insert(uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<uint64_t> old(std::max<size_t>(64, 2 * slots_.size()),
                                kEmpty);
      old.swap(slots_);
      for (uint64_t k : old) {
        if (k != kEmpty) Place(k);
      }
    }
    if (!Place(key)) return false;
    ++size_;
    return true;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  bool Place(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = (key * 0x9e3779b97f4a7c15ULL) >> 32 & mask;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

/// Instantiates rule parts into a GroundProgram: each binding of a part's
/// EDB literals, extended by every assignment of its free variables.
class Instantiator {
 public:
  Instantiator(const EvalContext& ctx, const GrounderOptions& options,
               GroundProgram* out)
      : ctx_(ctx), options_(options), out_(out) {}

  /// Emits one ground rule per instance of the rest `part` of `rule`, its
  /// body extended by the positive atoms `extra_pos`.
  Status GroundRules(const Rule& rule, const Part& part,
                     std::vector<uint32_t> extra_pos) {
    extra_pos_ = std::move(extra_pos);
    bodies_ = nullptr;
    return Run(rule, part);
  }

  /// Collects the distinct ground bodies of the instances of component
  /// `part` into `bodies`, checking the rule limit as if each body were
  /// already a rule. An EDB-only component yields the empty body when it
  /// has a witness.
  Status GroundBodies(const Rule& rule, const Part& part,
                      std::vector<uint32_t>* bodies) {
    extra_pos_.clear();
    bodies_ = bodies;
    seen_bodies_.clear();
    return Run(rule, part);
  }

 private:
  Status Run(const Rule& rule, const Part& part) {
    rule_ = &rule;
    part_ = &part;
    bindings_.assign(rule.num_vars, kNoValue);
    if (part.binding_rule < 0) return Enumerate(0);
    // The relational plan joins the EDB part through the column indexes;
    // its rows are the distinct bindings in the order the join first
    // found them. Grounding reports no executor counters.
    Relation rows(part.bound.size());
    EvalStats unreported;
    ExecutePlan(ctx_, PlanRule(ctx_.program(), part.binding_rule, {}, -1),
                IdbState(), nullptr, &rows, &unreported);
    for (size_t r = 0; r < rows.size(); ++r) {
      const TupleView row = rows.Row(r);
      for (size_t i = 0; i < row.size(); ++i) {
        bindings_[part.bound[i]] = row[i];
      }
      INFLOG_RETURN_IF_ERROR(Enumerate(0));
    }
    return Status::OK();
  }

  Status Enumerate(size_t i) {
    if (i == part_->free.size()) return Emit();
    for (Value v : ctx_.universe()) {
      bindings_[part_->free[i]] = v;
      INFLOG_RETURN_IF_ERROR(Enumerate(i + 1));
    }
    return Status::OK();
  }

  uint32_t Intern(uint32_t predicate, const std::vector<Term>& args) {
    scratch_.clear();
    for (const Term& t : args) {
      scratch_.push_back(t.IsConstant() ? t.id : bindings_[t.id]);
    }
    return out_->atoms.GetOrAdd(predicate, scratch_);
  }

  Status Emit() {
    const uint32_t head =
        bodies_ == nullptr ? Intern(rule_->head.predicate, rule_->head.args)
                           : 0;
    body_.pos = extra_pos_;
    body_.neg.clear();
    for (size_t i : part_->idb_literals) {
      const Literal& lit = rule_->body[i];
      (lit.IsPositiveAtom() ? body_.pos : body_.neg)
          .push_back(Intern(lit.predicate, lit.args));
    }
    for (std::vector<uint32_t>* v : {&body_.pos, &body_.neg}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    const uint32_t body_id = out_->bodies.GetOrAdd(body_);
    size_t count;
    if (bodies_ != nullptr) {
      if (!seen_bodies_.insert(body_id).second) return Status::OK();
      bodies_->push_back(body_id);
      count = out_->rules.size() + bodies_->size();
    } else {
      if (!seen_rules_.Insert(uint64_t{head} << 32 | body_id)) {
        return Status::OK();
      }
      out_->rules.push_back(GroundRule{head, body_id});
      count = out_->rules.size();
    }
    if (count > options_.max_ground_rules) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeded ", options_.max_ground_rules, " rules"));
    }
    return Status::OK();
  }

  const EvalContext& ctx_;
  const GrounderOptions& options_;
  GroundProgram* out_;
  /// The (head, body) pairs emitted so far.
  KeySet seen_rules_;

  const Rule* rule_ = nullptr;
  const Part* part_ = nullptr;
  std::vector<uint32_t> extra_pos_;
  std::vector<uint32_t>* bodies_ = nullptr;  // null: emit rules
  std::unordered_set<uint32_t> seen_bodies_;
  std::vector<Value> bindings_;
  GroundBody body_;
  Tuple scratch_;
};

}  // namespace

Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& database,
                                       const GrounderOptions& options) {
  // Each rule's parts: its existential components, then the rest of its
  // body. Their binding rules extend the program into the instantiation
  // program, whose context binds the EDB and the universe.
  Program instantiation = program;
  std::vector<std::vector<Part>> parts(program.rules().size());
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    std::vector<bool> projected(rule.body.size(), false);
    for (const std::vector<size_t>& component : ExistentialComponents(rule)) {
      for (size_t i : component) projected[i] = true;
      parts[r].push_back(MakePart(program, rule, component,
                                  /*with_head=*/false, &instantiation));
    }
    std::vector<size_t> rest;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!projected[i]) rest.push_back(i);
    }
    parts[r].push_back(
        MakePart(program, rule, rest, /*with_head=*/true, &instantiation));
  }
  EvalContextOptions context_options;
  context_options.allow_missing_edb = options.allow_missing_edb;
  INFLOG_ASSIGN_OR_RETURN(
      const EvalContext ctx,
      EvalContext::Create(instantiation, database, context_options));

  GroundProgram out;
  Instantiator instantiator(ctx, options, &out);
  for (uint32_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    // Project the existential components: each is grounded on its own
    // into its distinct bodies. A component with none has no witness, so
    // no instance of the rule survives; one whose only body is empty (an
    // EDB-only component with a witness) holds outright; any other
    // becomes an auxiliary atom defined by one rule per body. The rest of
    // the body is then instantiated once per binding of its own variables.
    const uint32_t num_components = parts[r].size() - 1;
    std::vector<std::vector<uint32_t>> bodies(num_components);
    bool has_witness = true;
    for (uint32_t c = 0; c < num_components && has_witness; ++c) {
      INFLOG_RETURN_IF_ERROR(
          instantiator.GroundBodies(rule, parts[r][c], &bodies[c]));
      has_witness = !bodies[c].empty();
    }
    if (!has_witness) continue;
    const size_t num_rules = out.rules.size();
    std::vector<uint32_t> aux_atoms;
    for (uint32_t c = 0; c < num_components; ++c) {
      if (bodies[c].size() == 1 && out.bodies.body(bodies[c][0]).empty()) {
        continue;
      }
      // Interned after the component's own atoms, so an auxiliary atom
      // never precedes an atom it depends on.
      const uint32_t aux =
          out.atoms.GetOrAdd(kAuxiliaryPredicate, Tuple{r, c});
      for (uint32_t body : bodies[c]) {
        out.rules.push_back(GroundRule{aux, body});
      }
      aux_atoms.push_back(aux);
    }
    const size_t aux_end = out.rules.size();
    INFLOG_RETURN_IF_ERROR(
        instantiator.GroundRules(rule, parts[r].back(), std::move(aux_atoms)));
    // No instance of the rest: nothing uses the auxiliary atoms.
    if (out.rules.size() == aux_end) out.rules.resize(num_rules);
  }
  out.IndexHeads();
  return out;
}

}  // namespace inflog
