#include "al/reader.hpp"

#include <iterator>

#include "al/number.hpp"

namespace interop::al {

namespace {

Token token(TokenKind kind) {
  Token t;
  t.kind = kind;
  return t;
}

/// Whitespace is the C locale's set, whatever the process locale is.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

bool atom_char(char c) {
  return !is_space(c) && c != '(' && c != ')' && c != '"' && c != ';' &&
         c != '\'';
}

}  // namespace

void Lexer::skip_space() {
  const char* p = src_.data() + pos_;
  const char* end = src_.data() + src_.size();
  while (p != end) {
    char c = *p;
    if (c == ';') {
      while (p != end && *p != '\n') ++p;
    } else if (is_space(c)) {
      ++p;
    } else {
      break;
    }
  }
  pos_ = std::size_t(p - src_.data());
}

void Lexer::close_quotes() {
  while (!frames_.empty() && frames_.back() == '\'') frames_.pop_back();
}

Token Lexer::next() {
  skip_space();
  if (pos_ >= src_.size()) {
    if (frames_.empty()) return {};
    throw AlError(frames_.back() == '\'' ? "unexpected end of input"
                                         : "unterminated list");
  }
  const char c = src_[pos_];
  if (c == '(' || c == '\'') {
    if (frames_.size() >= kMaxDepth)
      throw AlError("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
    frames_.push_back(c);
    ++pos_;
    return token(c == '(' ? TokenKind::Open : TokenKind::Quote);
  }
  if (c == ')') {
    if (frames_.empty() || frames_.back() == '\'')
      throw AlError("unexpected ')'");
    frames_.pop_back();
    ++pos_;
    close_quotes();
    return token(TokenKind::Close);
  }
  Token t = c == '"' ? read_string() : read_atom();
  close_quotes();
  return t;
}

Token Lexer::read_string() {
  const std::size_t start = ++pos_;  // past the opening quote
  // Without escapes the text is a view of the source; the first escape
  // switches to decoding into buf_.
  bool decoded = false;
  while (true) {
    if (pos_ >= src_.size()) throw AlError("unterminated string");
    char c = src_[pos_++];
    if (c == '"') break;
    if (c != '\\') {
      if (decoded) buf_ += c;
      continue;
    }
    if (!decoded) {
      buf_.assign(src_.substr(start, pos_ - 1 - start));
      decoded = true;
    }
    if (pos_ >= src_.size()) throw AlError("dangling escape");
    char e = src_[pos_++];
    switch (e) {
      case 'n': buf_ += '\n'; break;
      case 't': buf_ += '\t'; break;
      case '"': buf_ += '"'; break;
      case '\\': buf_ += '\\'; break;
      default: throw AlError(std::string("unknown escape \\") + e);
    }
  }
  Token t = token(TokenKind::String);
  t.text = decoded ? std::string_view(buf_)
                   : src_.substr(start, pos_ - 1 - start);
  return t;
}

Token Lexer::read_atom() {
  const std::size_t start = pos_;
  const char* p = src_.data() + pos_;
  const char* end = src_.data() + src_.size();
  while (p != end && atom_char(*p)) ++p;
  pos_ = std::size_t(p - src_.data());
  const std::string_view tok = src_.substr(start, pos_ - start);
  Token t;
  if (tok == "nil") {
    t.kind = TokenKind::Nil;
  } else if (tok == "#t" || tok == "#f") {
    t.kind = TokenKind::Bool;
    t.b = tok == "#t";
  } else if (std::optional<std::int64_t> i = parse_int64(tok)) {
    // Locale-independent, range-checked (see al/number.hpp): an integer
    // literal outside int64 range falls through to double; a double
    // literal outside double range falls through to symbol.
    t.kind = TokenKind::Int;
    t.i = *i;
  } else if (std::optional<double> d = parse_double(tok)) {
    t.kind = TokenKind::Double;
    t.d = *d;
  } else {
    t.kind = TokenKind::Symbol;
    t.text = tok;
  }
  return t;
}

namespace {

/// Builds Value trees from the lexer's tokens. Recursion depth is bounded
/// by the lexer's kMaxDepth.
class TreeBuilder {
 public:
  explicit TreeBuilder(const std::string& src) : lex_(src) {}

  std::vector<Value> read_all() {
    std::vector<Value> out;
    for (Token t = lex_.next(); t.kind != TokenKind::End; t = lex_.next())
      out.push_back(form(t));
    return out;
  }

 private:
  Value form(const Token& t) {
    switch (t.kind) {
      case TokenKind::Open: return list();
      case TokenKind::Quote: {
        Value quoted = form(lex_.next());
        return Value(Value::List{Value::sym("quote"), std::move(quoted)});
      }
      case TokenKind::String: return Value(std::string(t.text));
      case TokenKind::Int: return Value(t.i);
      case TokenKind::Double: return Value(t.d);
      case TokenKind::Symbol: return Value::sym(std::string(t.text));
      case TokenKind::Bool: return Value(t.b);
      case TokenKind::Nil: return Value::nil();
      case TokenKind::End:
      case TokenKind::Close: break;
    }
    // Unreachable: list() and read_all() consume Close and End, and the
    // lexer throws when a quote is followed by either.
    return Value::nil();
  }

  Value list() {
    // Items gather on a stack shared by every nesting level, then move into
    // a list allocated once, at its final size.
    const std::size_t base = items_.size();
    for (Token t = lex_.next(); t.kind != TokenKind::Close; t = lex_.next()) {
      Value item = form(t);
      items_.push_back(std::move(item));
    }
    auto first = items_.begin() + std::ptrdiff_t(base);
    Value::List items(std::make_move_iterator(first),
                      std::make_move_iterator(items_.end()));
    items_.erase(first, items_.end());
    return Value(std::move(items));
  }

  Lexer lex_;
  std::vector<Value> items_;  ///< list()'s item stack
};

}  // namespace

std::vector<Value> read_all(const std::string& source) {
  return TreeBuilder(source).read_all();
}

Value read_one(const std::string& source) {
  std::vector<Value> forms = read_all(source);
  if (forms.size() != 1)
    throw AlError("expected exactly one form, got " +
                  std::to_string(forms.size()));
  return forms[0];
}

}  // namespace interop::al
