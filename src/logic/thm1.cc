#include "src/logic/thm1.h"

#include <map>
#include <set>

#include "src/ast/parser.h"
#include "src/base/strings.h"
#include "src/relation/value.h"

namespace inflog {
namespace logic {
namespace {

/// Maps formula-level names into parser-safe tokens. Variables become
/// V<i>; relation names pass through when already safe, otherwise get a
/// sanitized R<i> alias (formula names like "X$0" are not identifiers).
class NameMapper {
 public:
  std::string Var(const std::string& formula_var) {
    auto [it, inserted] =
        vars_.emplace(formula_var, StrCat("V", vars_.size()));
    return it->second;
  }

  std::string Rel(const std::string& formula_rel) {
    auto it = rels_.find(formula_rel);
    if (it != rels_.end()) return it->second;
    std::string safe = Sanitize(formula_rel);
    while (used_rels_.count(safe) > 0) safe += "x";
    used_rels_.insert(safe);
    rels_.emplace(formula_rel, safe);
    return rels_.at(formula_rel);
  }

  /// Picks an unused relation name starting from `base`.
  std::string Fresh(const std::string& base) {
    std::string name = base;
    while (used_rels_.count(name) > 0) name += "q";
    used_rels_.insert(name);
    return name;
  }

 private:
  static std::string Sanitize(const std::string& name) {
    std::string out;
    for (char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        out += c;
      } else {
        out += '_';
      }
    }
    if (out.empty() || !std::isalpha(static_cast<unsigned char>(out[0]))) {
      out = "R" + out;
    }
    return out;
  }

  std::map<std::string, std::string> vars_;
  std::map<std::string, std::string> rels_;
  std::set<std::string> used_rels_;
};

std::string RenderTerm(NameMapper* names, const FoTerm& t) {
  if (t.is_var) return names->Var(t.name);
  std::string out;
  AppendConstant(t.name, &out);
  return out;
}

std::string RenderLiteral(NameMapper* names, const SnfLiteral& lit) {
  if (lit.is_eq) {
    return StrCat(RenderTerm(names, lit.args[0]),
                  lit.negated ? " != " : " = ",
                  RenderTerm(names, lit.args[1]));
  }
  std::string out = lit.negated ? "!" : "";
  out += names->Rel(lit.pred);
  out += "(";
  for (size_t i = 0; i < lit.args.size(); ++i) {
    if (i > 0) out += ",";
    out += RenderTerm(names, lit.args[i]);
  }
  return out + ")";
}

}  // namespace

Result<Thm1Compilation> CompileEsoToDatalog(
    const EsoSentence& sentence, std::shared_ptr<SymbolTable> symbols,
    const SnfOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(SkolemNormalForm snf,
                          ToSkolemNormalForm(sentence, options));

  NameMapper names;
  // Reserve the σ-relation and S̄ names first so they keep their spelling.
  for (const RelVar& rv : snf.so_vars) names.Rel(rv.name);
  for (const auto& disjunct : snf.disjuncts) {
    for (const SnfLiteral& lit : disjunct) {
      if (!lit.is_eq) names.Rel(lit.pred);
    }
  }
  const std::string q = names.Fresh("Q");
  const std::string t = names.Fresh("T");

  std::string text;
  // Choice rules Sⱼ(ū) ← Sⱼ(ū) make the S̄ nondatabase relations.
  for (const RelVar& rv : snf.so_vars) {
    std::string head = names.Rel(rv.name) + "(";
    for (size_t i = 0; i < rv.arity; ++i) {
      head += StrCat(i > 0 ? "," : "", "U", i);
    }
    head += ")";
    if (rv.arity == 0) head = names.Rel(rv.name);
    text += StrCat(head, " :- ", head, ".\n");
  }

  // Q(x̄) ← θᵢ: the universal variables are the head.
  std::string q_head = q;
  if (!snf.universal_vars.empty()) {
    q_head += "(";
    for (size_t i = 0; i < snf.universal_vars.size(); ++i) {
      if (i > 0) q_head += ",";
      q_head += names.Var(snf.universal_vars[i]);
    }
    q_head += ")";
  }
  for (const auto& disjunct : snf.disjuncts) {
    std::vector<std::string> body;
    for (const SnfLiteral& lit : disjunct) {
      body.push_back(RenderLiteral(&names, lit));
    }
    text += StrCat(q_head, " :- ", StrJoin(body, ", "), ".\n");
  }
  if (snf.disjuncts.empty()) {
    // The matrix simplified to false. Q must still be a nondatabase
    // relation, with no support in any fixpoint: give it a single rule
    // whose body is unsatisfiable.
    text += StrCat(q_head, " :- ", q_head, ", !", q_head, ".\n");
  }

  // The guarded toggle T(z) ← ¬Q(ū), ¬T(w).
  std::string q_neg = StrCat("!", q);
  if (!snf.universal_vars.empty()) {
    q_neg += "(";
    for (size_t i = 0; i < snf.universal_vars.size(); ++i) {
      q_neg += StrCat(i > 0 ? "," : "", "QU", i);
    }
    q_neg += ")";
  }
  text += StrCat(t, "(TZ) :- ", q_neg, ", !", t, "(TW).\n");

  INFLOG_ASSIGN_OR_RETURN(Program program,
                          ParseProgram(text, std::move(symbols)));
  Thm1Compilation out(std::move(program));
  out.snf = std::move(snf);
  out.program_text = std::move(text);
  return out;
}

}  // namespace logic
}  // namespace inflog
