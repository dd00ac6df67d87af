// The one tokenizer of Datalog text. Programs and fact files
// (src/ast/parser.h), update lines (ParseUpdateLine) and `?` queries
// (serve::ParseServeQuery) all read their input through a TokenStream;
// src/ast/parser.h states the syntax each accepts. Tokens are views into
// the source, lexed on demand, so reading allocates nothing per token.

#ifndef INFLOG_AST_LEXER_H_
#define INFLOG_AST_LEXER_H_

#include <cstdint>
#include <string_view>

#include "src/base/status.h"
#include "src/relation/tuple.h"

namespace inflog {

enum class TokenKind : uint8_t {
  kConstant,   // lowercase-initial identifier, digit string or 'quoted'
  kVariable,   // uppercase- or '_'-initial identifier
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kColonDash,  // :-
  kBang,       // !
  kEq,         // =
  kNeq,        // != or <>
  kAt,         // @
  kPlus,       // +
  kMinus,      // -
  kQuery,      // ?
  kEof,
  kError,      // text no token starts with; Err() reports it
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  /// The source text; a quoted constant's is the text between the quotes.
  std::string_view text;
  int line = 1;
};

/// The tokens of one source text, lexed one ahead, and the Peek/Take/
/// Expect/Err helpers every grammar reads them through. Whitespace and
/// comments (`%`, `//` or `#` to the end of the line) separate tokens.
/// The stream ends at the first lexical error: Take() never consumes the
/// kError token, so the parser stops on it and Err() reports it in place
/// of whatever the parser expected.
class TokenStream {
 public:
  explicit TokenStream(std::string_view text) : text_(text) { Advance(); }

  /// The next token.
  const Token& Peek() const { return next_; }

  /// The token after the next one.
  Token PeekSecond() const {
    TokenStream ahead = *this;
    ahead.Take();
    return ahead.Peek();
  }

  /// Consumes and returns the next token (kEof and kError stay put).
  Token Take() {
    const Token tok = next_;
    if (tok.kind != TokenKind::kEof && tok.kind != TokenKind::kError) {
      Advance();
    }
    return tok;
  }

  /// Consumes the next token iff it is a `kind`.
  bool TakeIf(TokenKind kind) {
    if (next_.kind != kind) return false;
    Take();
    return true;
  }

  /// Consumes a `kind` token, or fails with "expected <what>".
  Status Expect(TokenKind kind, const char* what);

  /// InvalidArgument "line N: <message> (at '<text>')", or the lexical
  /// error when `tok` is a kError.
  static Status Err(const Token& tok, std::string_view message);

 private:
  /// Lexes the token after `next_` into `next_`.
  void Advance();

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Token next_;
};

/// Reads a ground atom, `Name` or `Name(c1,...,cn)`: a fact before its
/// period, or one atom of an update line. Interns the constants into
/// `symbols`; a variable argument is an error.
Status ReadGroundAtom(TokenStream* in, SymbolTable* symbols,
                      std::string_view* name, Tuple* tuple);

}  // namespace inflog

#endif  // INFLOG_AST_LEXER_H_
