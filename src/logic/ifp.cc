#include "src/logic/ifp.h"

#include "src/base/strings.h"
#include "src/logic/fixpoint_formula.h"
#include "src/logic/transform.h"
#include "src/relation/value.h"

namespace inflog {
namespace logic {

Result<IfpResult> InflationaryFixpointOfFormula(const FoModel& model,
                                                const IfpOperator& op) {
  if (op.tuple_vars.size() != op.arity) {
    return Status::InvalidArgument("tuple variable count != arity");
  }
  const std::vector<Value> universe = model.UniverseOrDefault();
  IfpResult out(op.arity);

  // Enumerate A^k once; re-test every tuple not yet in R each stage.
  std::vector<Tuple> candidates;
  if (op.arity == 0) {
    candidates.push_back({});
  } else if (!universe.empty()) {
    std::vector<size_t> digits(op.arity, 0);
    while (true) {
      Tuple t(op.arity);
      for (size_t k = 0; k < op.arity; ++k) t[k] = universe[digits[k]];
      candidates.push_back(std::move(t));
      size_t k = 0;
      while (k < op.arity && ++digits[k] == universe.size()) {
        digits[k] = 0;
        ++k;
      }
      if (k == op.arity) break;
    }
  }

  FoModel stage_model = model;
  stage_model.extra[op.rel_name] = &out.relation;
  while (true) {
    std::vector<Tuple> new_tuples;
    for (const Tuple& t : candidates) {
      if (out.relation.Contains(t)) continue;
      FoBinding binding;
      for (size_t k = 0; k < op.arity; ++k) {
        binding[op.tuple_vars[k]] = t[k];
      }
      INFLOG_ASSIGN_OR_RETURN(const bool holds,
                              EvalFormula(stage_model, op.formula, binding));
      if (holds) new_tuples.push_back(t);
    }
    if (new_tuples.empty()) break;
    // Inflationary stage semantics: all of H(Rⁿ) joins at once.
    for (const Tuple& t : new_tuples) out.relation.Insert(t);
    ++out.stages;
  }
  return out;
}

Result<IfpOperator> ProgramToIfpOperator(const Program& program) {
  if (program.idb_predicates().size() != 1) {
    return Status::FailedPrecondition(
        "ProgramToIfpOperator handles programs with a single nondatabase "
        "relation (the case treated in Proposition 1)");
  }
  const uint32_t pred = program.idb_predicates()[0];
  IfpOperator op;
  op.rel_name = program.predicate(pred).name;
  op.arity = program.predicate(pred).arity;
  for (size_t i = 0; i < op.arity; ++i) {
    op.tuple_vars.push_back(StrCat("x", i));
  }
  // Section 2's analysis: Θ's component is existential first-order.
  op.formula = BuildOperatorFormula(program, 0);
  return op;
}

Result<std::string> IfpOperatorToProgramText(const IfpOperator& op) {
  // Bring φ into ∃-prenex DNF; reject universal quantification.
  int counter = 0;
  FormulaPtr nnf = RenameBoundApart(ToNnf(op.formula), &counter);
  PrenexForm prenex = ToPrenex(nnf);
  for (const auto& [is_forall, var] : prenex.prefix) {
    if (is_forall) {
      return Status::FailedPrecondition(
          "operator formula is not existential; Proposition 1's converse "
          "applies to the existential fragment of FO+IFP");
    }
  }
  EsoSentence wrapper;
  wrapper.matrix = prenex.matrix;
  INFLOG_ASSIGN_OR_RETURN(SkolemNormalForm snf,
                          ToSkolemNormalForm(wrapper));

  // Variable renaming: tuple vars become X0..; everything else V<i>.
  std::map<std::string, std::string> var_names;
  for (size_t i = 0; i < op.tuple_vars.size(); ++i) {
    var_names[op.tuple_vars[i]] = StrCat("X", i);
  }
  auto map_var = [&var_names](const std::string& v) {
    auto [it, inserted] =
        var_names.emplace(v, StrCat("V", var_names.size()));
    return it->second;
  };
  auto render_term = [&](const FoTerm& t) {
    if (t.is_var) return map_var(t.name);
    std::string out;
    AppendConstant(t.name, &out);
    return out;
  };

  std::string head = op.rel_name;
  if (op.arity > 0) {
    head += "(";
    for (size_t i = 0; i < op.arity; ++i) {
      head += StrCat(i > 0 ? "," : "", "X", i);
    }
    head += ")";
  }

  std::string text;
  for (const auto& disjunct : snf.disjuncts) {
    std::vector<std::string> body;
    for (const SnfLiteral& lit : disjunct) {
      if (lit.is_eq) {
        body.push_back(StrCat(render_term(lit.args[0]),
                              lit.negated ? " != " : " = ",
                              render_term(lit.args[1])));
        continue;
      }
      std::string atom = StrCat(lit.negated ? "!" : "", lit.pred, "(");
      for (size_t i = 0; i < lit.args.size(); ++i) {
        atom += StrCat(i > 0 ? "," : "", render_term(lit.args[i]));
      }
      body.push_back(atom + ")");
    }
    if (body.empty()) {
      text += StrCat(head, ".\n");
    } else {
      text += StrCat(head, " :- ", StrJoin(body, ", "), ".\n");
    }
  }
  if (snf.disjuncts.empty()) {
    // φ ≡ false: a program whose single rule can never fire.
    text += StrCat(head, " :- ", head, ", !", head, ".\n");
  }
  return text;
}

}  // namespace logic
}  // namespace inflog
