#include "src/ast/lexer.h"

#include <algorithm>
#include <cctype>

#include "src/base/strings.h"

namespace inflog {

void TokenStream::Advance() {
  const std::string_view text = text_;
  size_t pos = pos_;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == '%' || c == '#' ||
        (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/')) {
      pos = std::min(text.find('\n', pos), text.size()) - 1;
    } else if (c == '\n') {
      ++line_;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      break;
    }
  }
  const size_t start = pos;
  // Consumes `second` for a two-character token.
  const auto then = [&](char second) {
    if (pos == text.size() || text[pos] != second) return false;
    ++pos;
    return true;
  };
  TokenKind kind = TokenKind::kEof;
  if (pos < text.size()) {
    const char c = text[pos++];
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case ',': kind = TokenKind::kComma; break;
      case '.': kind = TokenKind::kPeriod; break;
      case '@': kind = TokenKind::kAt; break;
      case '=': kind = TokenKind::kEq; break;
      case '+': kind = TokenKind::kPlus; break;
      case '-': kind = TokenKind::kMinus; break;
      case '?': kind = TokenKind::kQuery; break;
      case '!': kind = then('=') ? TokenKind::kNeq : TokenKind::kBang; break;
      case '<': kind = then('>') ? TokenKind::kNeq : TokenKind::kError; break;
      case ':':
        kind = then('-') ? TokenKind::kColonDash : TokenKind::kError;
        break;
      case '\'': {
        const size_t close = text.find('\'', pos);
        if (close == std::string_view::npos) {
          kind = TokenKind::kError;  // the rest of the text
          pos = text.size();
          break;
        }
        next_ = {TokenKind::kConstant, text.substr(pos, close - pos), line_};
        pos_ = close + 1;
        return;
      }
      default:
        // A digit string, or an identifier: its initial's case decides.
        if (IsDigitAscii(c)) {
          while (pos < text.size() && IsDigitAscii(text[pos])) ++pos;
          kind = TokenKind::kConstant;
        } else if (IsWordAscii(c)) {
          while (pos < text.size() && IsWordAscii(text[pos])) ++pos;
          kind = IsUpperAscii(c) || c == '_' ? TokenKind::kVariable
                                             : TokenKind::kConstant;
        } else {
          kind = TokenKind::kError;
        }
    }
  }
  next_ = {kind, text.substr(start, pos - start), line_};
  pos_ = pos;
}

Status TokenStream::Expect(TokenKind kind, const char* what) {
  if (TakeIf(kind)) return Status::OK();
  return Err(Peek(), StrCat("expected ", what));
}

Status TokenStream::Err(const Token& tok, std::string_view message) {
  if (tok.kind != TokenKind::kError) {
    return Status::InvalidArgument(StrCat("line ", tok.line, ": ", message,
                                          " (at '", tok.text, "')"));
  }
  if (tok.text[0] == '\'') {
    return Status::InvalidArgument(
        StrCat("line ", tok.line, ": unterminated quoted constant"));
  }
  return Status::InvalidArgument(
      StrCat("line ", tok.line, ": unexpected character '", tok.text, "'"));
}

Status ReadGroundAtom(TokenStream* in, SymbolTable* symbols,
                      std::string_view* name, Tuple* tuple) {
  // Relation names may be capitalized (the paper's E, V, P, N).
  const Token head = in->Peek();
  if (head.kind != TokenKind::kConstant && head.kind != TokenKind::kVariable) {
    return TokenStream::Err(head, "expected relation name");
  }
  in->Take();
  *name = head.text;
  tuple->clear();
  if (!in->TakeIf(TokenKind::kLParen) || in->TakeIf(TokenKind::kRParen)) {
    return Status::OK();
  }
  do {
    const Token& tok = in->Peek();
    if (tok.kind == TokenKind::kVariable) {
      return TokenStream::Err(tok, "facts must be ground (no variables)");
    }
    if (tok.kind != TokenKind::kConstant) {
      return TokenStream::Err(tok, "expected a constant");
    }
    tuple->push_back(symbols->Intern(in->Take().text));
  } while (in->TakeIf(TokenKind::kComma));
  return in->Expect(TokenKind::kRParen, "')'");
}

}  // namespace inflog
