// Text parser for DATALOG¬ programs and database fact files, and the
// syntax every Datalog text front end shares. Programs, fact files, update
// lines (ParseUpdateLine, src/eval/incremental.h) and `?` queries
// (serve::ParseServeQuery, src/serve/query.h) are all read by one lexer
// (src/ast/lexer.h), and AppendConstant (src/relation/value.h) is the one
// writer of constants, so a constant is spelled the same way everywhere:
//
//   constant  a lowercase-initial identifier (`a`, `not`, `c42`), a digit
//             string (`007`) or any text without `'` between single quotes
//             (`'Foo'`, `'a b'`, `'-1'`, `''`). `c` and `'c'` are the same
//             constant. Output writes a name bare when it reads back bare,
//             quoted otherwise.
//   variable  an identifier starting with an uppercase letter or `_`.
//             Each `_` is anonymous: a variable of its own, never shared.
//   comment   `%`, `//` or `#` to the end of the line.
//
// Identifiers are ASCII letters, digits and `_`. Each front end accepts:
//
//   program   rules, one per '.':
//     T(X)        :- E(Y,X), !T(Y).        % the paper's program π₁
//     S2(X,Y)     :- E(X,Z), S2(Z,Y).
//     Q(X,Y,Z,W)  :- S1(X,Y), not S1(Z,W). % 'not' and '!' both negate
//     P(X)        :- !R(X), !B(X), !G(X).
//     G1(Z1,1,Z2).                         % bodyless rule (universal head)
//     Eq(X,Y)     :- D(X), D(Y), X = Y.    % equality / inequality literals
//   facts     ground atoms ending in '.' and universe declarations:
//     E(1,2). E(2,'Foo'). Flag.
//     @universe 1 2 3 4.
//   update    one line of ground atoms, each signed + (insert) or
//             - (delete), written as facts without the period:
//     +E(4,5) -E(1,2)  # move an edge
//   query     one line: `?` and a comma-separated conjunction of atoms,
//             each with parentheses, whose terms are constants or
//             variables:
//     ?T(1,X), E(X,_)
//
// Predicate names may be any identifier; their position, not their case,
// makes them names. Unsafe rules (head or negated variables not bound by
// any positive body literal) are legal and evaluate over the active
// domain, as in the paper.

#ifndef INFLOG_AST_PARSER_H_
#define INFLOG_AST_PARSER_H_

#include <memory>
#include <string_view>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/relation/database.h"

namespace inflog {

/// Parses a program, interning constants into `symbols`.
Result<Program> ParseProgram(std::string_view text,
                             std::shared_ptr<SymbolTable> symbols);

/// Convenience overload with a fresh symbol table.
Result<Program> ParseProgram(std::string_view text);

/// Parses facts and @universe declarations into an existing database.
Status ParseDatabaseInto(std::string_view text, Database* db);

/// Parses a database with a fresh symbol table.
Result<Database> ParseDatabase(std::string_view text);

}  // namespace inflog

#endif  // INFLOG_AST_PARSER_H_
