#include "src/ast/parser.h"

#include <unordered_map>

#include "src/ast/lexer.h"

namespace inflog {
namespace {

// Recursive-descent parser over the token stream.
class ProgramParser {
 public:
  ProgramParser(std::string_view text, std::shared_ptr<SymbolTable> symbols)
      : in_(text), program_(std::move(symbols)) {}

  Result<Program> Parse() {
    while (in_.Peek().kind != TokenKind::kEof) {
      INFLOG_RETURN_IF_ERROR(ParseClause());
    }
    return std::move(program_);
  }

 private:
  // clause := atom ( ":-" literal ("," literal)* )? "."
  Status ParseClause() {
    var_ids_.clear();
    var_names_.clear();
    HeadAtom head;
    INFLOG_RETURN_IF_ERROR(ParseAtom(&head.predicate, &head.args));
    std::vector<Literal> body;
    // Allow an empty body before the period ("H :- ." as in the paper's
    // input-gate rules), as well as a non-empty literal list.
    if (in_.TakeIf(TokenKind::kColonDash) &&
        in_.Peek().kind != TokenKind::kPeriod) {
      do {
        Literal lit;
        INFLOG_RETURN_IF_ERROR(ParseLiteral(&lit));
        body.push_back(std::move(lit));
      } while (in_.TakeIf(TokenKind::kComma));
    }
    INFLOG_RETURN_IF_ERROR(in_.Expect(TokenKind::kPeriod, "'.'"));
    Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    rule.num_vars = static_cast<uint32_t>(var_names_.size());
    rule.var_names = var_names_;
    return program_.AddRule(std::move(rule));
  }

  // Predicate names may be capitalized (the paper writes T, E, S₁) or
  // lowercase; the syntactic position — not the case — decides whether an
  // identifier is a predicate. Case only disambiguates terms.
  static bool IsNameToken(const Token& tok) {
    return tok.kind == TokenKind::kConstant ||
           tok.kind == TokenKind::kVariable;
  }

  // literal := atom | "!" atom | "not" atom | term ("="|"!=") term
  Status ParseLiteral(Literal* lit) {
    const Token& tok = in_.Peek();
    if (tok.kind == TokenKind::kBang ||
        (tok.kind == TokenKind::kConstant && tok.text == "not" &&
         IsNameToken(in_.PeekSecond()))) {
      in_.Take();  // consume '!' or 'not'
      uint32_t pred;
      std::vector<Term> args;
      INFLOG_RETURN_IF_ERROR(ParseAtom(&pred, &args));
      *lit = Literal::Neg(pred, std::move(args));
      return Status::OK();
    }
    // Could be an atom or the left term of an (in)equality. An atom starts
    // with an identifier followed by '(' or by a delimiter (arity 0); a
    // term position followed by '='/'!=' is an equality literal instead.
    const TokenKind next = in_.PeekSecond().kind;
    if (IsNameToken(tok) &&
        (next == TokenKind::kLParen || next == TokenKind::kComma ||
         next == TokenKind::kPeriod)) {
      uint32_t pred;
      std::vector<Term> args;
      INFLOG_RETURN_IF_ERROR(ParseAtom(&pred, &args));
      *lit = Literal::Pos(pred, std::move(args));
      return Status::OK();
    }
    Term lhs;
    INFLOG_RETURN_IF_ERROR(ParseTerm(&lhs));
    const TokenKind op = in_.Peek().kind;
    if (op != TokenKind::kEq && op != TokenKind::kNeq) {
      return TokenStream::Err(in_.Peek(), "expected '=', '!=' or an atom");
    }
    in_.Take();
    Term rhs;
    INFLOG_RETURN_IF_ERROR(ParseTerm(&rhs));
    *lit = op == TokenKind::kEq ? Literal::Eq(lhs, rhs)
                                : Literal::Neq(lhs, rhs);
    return Status::OK();
  }

  // atom := NAME ( "(" ( term ("," term)* )? ")" )?   (no parens: arity 0)
  Status ParseAtom(uint32_t* pred, std::vector<Term>* args) {
    if (!IsNameToken(in_.Peek())) {
      return TokenStream::Err(in_.Peek(), "expected predicate name");
    }
    const Token name = in_.Take();
    args->clear();
    if (in_.TakeIf(TokenKind::kLParen) && !in_.TakeIf(TokenKind::kRParen)) {
      do {
        Term term;
        INFLOG_RETURN_IF_ERROR(ParseTerm(&term));
        args->push_back(term);
      } while (in_.TakeIf(TokenKind::kComma));
      INFLOG_RETURN_IF_ERROR(in_.Expect(TokenKind::kRParen, "')'"));
    }
    INFLOG_ASSIGN_OR_RETURN(
        *pred, program_.GetOrAddPredicate(name.text, args->size()));
    return Status::OK();
  }

  // Each `_` is a variable of its own; other names share one per rule.
  Status ParseTerm(Term* term) {
    const Token tok = in_.Take();
    if (tok.kind == TokenKind::kConstant) {
      *term = Term::Const(program_.shared_symbols()->Intern(tok.text));
      return Status::OK();
    }
    if (tok.kind != TokenKind::kVariable) {
      return TokenStream::Err(tok, "expected a term");
    }
    const auto fresh = static_cast<uint32_t>(var_names_.size());
    const uint32_t id =
        tok.text == "_" ? fresh
                        : var_ids_.emplace(tok.text, fresh).first->second;
    if (id == fresh) var_names_.emplace_back(tok.text);
    *term = Term::Var(id);
    return Status::OK();
  }

  TokenStream in_;
  Program program_;
  std::unordered_map<std::string_view, uint32_t> var_ids_;
  std::vector<std::string> var_names_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view text,
                             std::shared_ptr<SymbolTable> symbols) {
  return ProgramParser(text, std::move(symbols)).Parse();
}

Result<Program> ParseProgram(std::string_view text) {
  return ParseProgram(text, std::make_shared<SymbolTable>());
}

// Database files: ground facts and @universe declarations.
//   fact     := ground_atom "."
//   universe := "@" "universe" constant* "."
Status ParseDatabaseInto(std::string_view text, Database* db) {
  TokenStream in(text);
  std::string_view name;
  Tuple tuple;
  while (in.Peek().kind != TokenKind::kEof) {
    if (in.TakeIf(TokenKind::kAt)) {
      if (in.Peek().kind != TokenKind::kConstant ||
          in.Peek().text != "universe") {
        return TokenStream::Err(in.Peek(), "expected 'universe' after '@'");
      }
      in.Take();
      while (in.Peek().kind == TokenKind::kConstant) {
        db->AddUniverseSymbol(in.Take().text);
      }
      INFLOG_RETURN_IF_ERROR(
          in.Expect(TokenKind::kPeriod, "'.' after @universe declaration"));
      continue;
    }
    INFLOG_RETURN_IF_ERROR(ReadGroundAtom(&in, &db->symbols(), &name, &tuple));
    INFLOG_RETURN_IF_ERROR(in.Expect(TokenKind::kPeriod, "'.' after fact"));
    INFLOG_RETURN_IF_ERROR(db->AddFact(name, tuple));
  }
  return Status::OK();
}

Result<Database> ParseDatabase(std::string_view text) {
  Database db;
  INFLOG_RETURN_IF_ERROR(ParseDatabaseInto(text, &db));
  return db;
}

}  // namespace inflog
