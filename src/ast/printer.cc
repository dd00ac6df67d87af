#include "src/ast/printer.h"

#include "src/ast/program.h"
#include "src/base/strings.h"

namespace inflog {

std::string FormatTerm(const Program& program, const Rule& rule,
                       const Term& term) {
  if (term.IsVariable()) {
    if (term.id < rule.var_names.size() && !rule.var_names[term.id].empty()) {
      return rule.var_names[term.id];
    }
    return StrCat("V", term.id);
  }
  std::string out;
  AppendConstant(program.symbols().Name(term.id), &out);
  return out;
}

namespace {

std::string FormatArgs(const Program& program, const Rule& rule,
                       const std::vector<Term>& args) {
  std::string out = "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatTerm(program, rule, args[i]);
  }
  out += ")";
  return out;
}

}  // namespace

std::string FormatLiteral(const Program& program, const Rule& rule,
                          const Literal& literal) {
  switch (literal.kind) {
    case Literal::Kind::kAtom:
      return StrCat(program.predicate(literal.predicate).name,
                    FormatArgs(program, rule, literal.args));
    case Literal::Kind::kNegAtom:
      return StrCat("!", program.predicate(literal.predicate).name,
                    FormatArgs(program, rule, literal.args));
    case Literal::Kind::kEq:
      return StrCat(FormatTerm(program, rule, literal.args[0]), " = ",
                    FormatTerm(program, rule, literal.args[1]));
    case Literal::Kind::kNeq:
      return StrCat(FormatTerm(program, rule, literal.args[0]), " != ",
                    FormatTerm(program, rule, literal.args[1]));
  }
  return "<bad literal>";
}

std::string FormatRule(const Program& program, const Rule& rule) {
  std::string out = StrCat(program.predicate(rule.head.predicate).name,
                           FormatArgs(program, rule, rule.head.args));
  if (!rule.body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatLiteral(program, rule, rule.body[i]);
    }
  }
  out += ".";
  return out;
}

}  // namespace inflog
