#pragma once
// The a/L reader: one s-expression lexer, and the tree builder on top of it
// that turns text into Value forms.
//
// The lexer is the only s-expression tokenizer in the repository. It also
// checks the bracket structure (every ')' closes a '(', a quote is followed
// by a form, nesting stays under kMaxDepth), so a consumer that pulls
// tokens straight into its own structures, like sch::read_design, gets
// exactly the syntax errors read_all would raise, in the same order.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "al/value.hpp"

namespace interop::al {

/// Deepest nesting of lists and quotes the reader accepts. Nothing the
/// repository reads (a/L programs, design files, the fuzz corpus and
/// generators) nests deeper than 16; the bound keeps a hostile "((((..."
/// from exhausting the stack of a recursive consumer.
inline constexpr std::size_t kMaxDepth = 1000;

enum class TokenKind : std::uint8_t {
  End,     ///< end of input, every list closed
  Open,    ///< (
  Close,   ///< )
  Quote,   ///< ' — the next form is quoted
  String,  ///< "..." with escapes decoded, in `text`
  Int,     ///< `i`
  Double,  ///< `d`
  Symbol,  ///< `text`
  Nil,     ///< nil
  Bool,    ///< #t / #f, in `b`
};

struct Token {
  TokenKind kind = TokenKind::End;
  /// String and Symbol text; valid until the next Lexer::next().
  std::string_view text;
  std::int64_t i = 0;
  double d = 0;
  bool b = false;
};

/// Pull lexer over `source`, which must outlive it. Supports integers,
/// doubles (classified by al/number.hpp), strings with \" \\ \n \t escapes,
/// symbols, #t/#f, nil, lists, 'x quoting and ; line comments.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// The next token. Throws AlError on malformed input: a bad string, an
  /// unmatched ')', a quote with no form after it, an unterminated list,
  /// or nesting deeper than kMaxDepth.
  Token next();

  /// Open lists and pending quotes after the last token returned.
  std::size_t depth() const { return frames_.size(); }

 private:
  void skip_space();
  Token read_string();
  Token read_atom();
  /// A form just ended: the quotes waiting for it are satisfied.
  void close_quotes();

  std::string_view src_;
  std::size_t pos_ = 0;
  std::string frames_;  ///< one '(' or '\'' per open list or pending quote
  std::string buf_;     ///< decoded text of a string with escapes
};

/// Parse every top-level form in `source`. Throws AlError on malformed
/// input.
std::vector<Value> read_all(const std::string& source);

/// Parse exactly one form; throws if there is not exactly one.
Value read_one(const std::string& source);

}  // namespace interop::al
