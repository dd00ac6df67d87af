#include "src/logic/formula.h"

#include <algorithm>

#include "src/base/strings.h"

namespace inflog {
namespace logic {
namespace {

FormulaPtr Make(Formula f) {
  return std::make_shared<const Formula>(std::move(f));
}

}  // namespace

FormulaPtr Atom(std::string pred, std::vector<FoTerm> args) {
  Formula f;
  f.kind = Formula::Kind::kAtom;
  f.pred = std::move(pred);
  f.args = std::move(args);
  return Make(std::move(f));
}

FormulaPtr Eq(FoTerm lhs, FoTerm rhs) {
  Formula f;
  f.kind = Formula::Kind::kEq;
  f.args = {std::move(lhs), std::move(rhs)};
  return Make(std::move(f));
}

FormulaPtr True() {
  Formula f;
  f.kind = Formula::Kind::kTrue;
  return Make(std::move(f));
}

FormulaPtr False() {
  Formula f;
  f.kind = Formula::Kind::kFalse;
  return Make(std::move(f));
}

FormulaPtr Not(FormulaPtr child) {
  Formula f;
  f.kind = Formula::Kind::kNot;
  f.children = {std::move(child)};
  return Make(std::move(f));
}

FormulaPtr And(std::vector<FormulaPtr> children) {
  Formula f;
  f.kind = Formula::Kind::kAnd;
  f.children = std::move(children);
  return Make(std::move(f));
}

FormulaPtr Or(std::vector<FormulaPtr> children) {
  Formula f;
  f.kind = Formula::Kind::kOr;
  f.children = std::move(children);
  return Make(std::move(f));
}

FormulaPtr Implies(FormulaPtr a, FormulaPtr b) {
  return Or({Not(std::move(a)), std::move(b)});
}

FormulaPtr Iff(FormulaPtr a, FormulaPtr b) {
  return And({Implies(a, b), Implies(b, a)});
}

FormulaPtr Exists(std::vector<std::string> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  Formula f;
  f.kind = Formula::Kind::kExists;
  f.vars = std::move(vars);
  f.children = {std::move(body)};
  return Make(std::move(f));
}

FormulaPtr Forall(std::vector<std::string> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  Formula f;
  f.kind = Formula::Kind::kForall;
  f.vars = std::move(vars);
  f.children = {std::move(body)};
  return Make(std::move(f));
}

FormulaPtr SubstituteVars(
    const FormulaPtr& f,
    const std::vector<std::pair<std::string, FoTerm>>& subst) {
  auto lookup = [&subst](const std::string& name) -> const FoTerm* {
    for (const auto& [from, to] : subst) {
      if (from == name) return &to;
    }
    return nullptr;
  };
  switch (f->kind) {
    case Formula::Kind::kAtom:
    case Formula::Kind::kEq: {
      std::vector<FoTerm> args = f->args;
      bool changed = false;
      for (FoTerm& t : args) {
        if (!t.is_var) continue;
        if (const FoTerm* to = lookup(t.name)) {
          t = *to;
          changed = true;
        }
      }
      if (!changed) return f;
      return f->kind == Formula::Kind::kAtom
                 ? Atom(f->pred, std::move(args))
                 : Eq(args[0], args[1]);
    }
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return f;
    case Formula::Kind::kNot:
      return Not(SubstituteVars(f->children[0], subst));
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      std::vector<FormulaPtr> children;
      children.reserve(f->children.size());
      for (const FormulaPtr& c : f->children) {
        children.push_back(SubstituteVars(c, subst));
      }
      return f->kind == Formula::Kind::kAnd ? And(std::move(children))
                                            : Or(std::move(children));
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      // Drop substitutions shadowed by the quantifier. Transform
      // pipelines rename bound variables apart first, so capture cannot
      // occur here.
      std::vector<std::pair<std::string, FoTerm>> inner;
      for (const auto& [from, to] : subst) {
        if (std::find(f->vars.begin(), f->vars.end(), from) ==
            f->vars.end()) {
          inner.emplace_back(from, to);
        }
      }
      if (inner.empty()) return f;
      FormulaPtr body = SubstituteVars(f->children[0], inner);
      return f->kind == Formula::Kind::kExists ? Exists(f->vars, body)
                                               : Forall(f->vars, body);
    }
  }
  INFLOG_CHECK(false) << "bad formula kind";
  return f;
}

std::string Formula::ToString() const {
  auto term_str = [](const FoTerm& t) { return t.name; };
  switch (kind) {
    case Kind::kAtom: {
      std::string out = pred + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ",";
        out += term_str(args[i]);
      }
      return out + ")";
    }
    case Kind::kEq:
      return StrCat(term_str(args[0]), "=", term_str(args[1]));
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kNot:
      return StrCat("~", children[0]->ToString());
    case Kind::kAnd:
    case Kind::kOr: {
      if (children.empty()) return kind == Kind::kAnd ? "true" : "false";
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += kind == Kind::kAnd ? " & " : " | ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kExists:
    case Kind::kForall: {
      std::string out = kind == Kind::kExists ? "exists " : "forall ";
      out += StrJoin(vars, ",");
      return StrCat(out, ". ", children[0]->ToString());
    }
  }
  return "<bad>";
}

std::string EsoSentence::ToString() const {
  std::string out;
  for (const RelVar& rv : so_vars) {
    out += StrCat("EXISTS ", rv.name, "/", rv.arity, ". ");
  }
  return out + matrix->ToString();
}

}  // namespace logic
}  // namespace inflog
