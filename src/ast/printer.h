// Pretty-printing of rules and literals in the parser's concrete syntax,
// so that ToString output round-trips through the parser.

#ifndef INFLOG_AST_PRINTER_H_
#define INFLOG_AST_PRINTER_H_

#include <string>

#include "src/ast/ast.h"

namespace inflog {

class Program;

/// Renders a term: the rule's variable name or the constant as facts
/// spell it (AppendConstant).
std::string FormatTerm(const Program& program, const Rule& rule,
                       const Term& term);

/// Renders a body literal, e.g. "E(X,Y)", "!T(Y)", "X != Y".
std::string FormatLiteral(const Program& program, const Rule& rule,
                          const Literal& literal);

/// Renders a full rule, e.g. "T(X) :- E(Y,X), !T(Y).".
std::string FormatRule(const Program& program, const Rule& rule);

}  // namespace inflog

#endif  // INFLOG_AST_PRINTER_H_
