#include "al/reader.hpp"

#include <cctype>
#include <iterator>

#include "al/number.hpp"

namespace interop::al {

namespace {

class Reader {
 public:
  explicit Reader(const std::string& src) : src_(src) {}

  std::vector<Value> read_all() {
    std::vector<Value> out;
    skip_space();
    while (pos_ < src_.size()) {
      out.push_back(read_form());
      skip_space();
    }
    return out;
  }

 private:
  void skip_space() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == ';') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() const {
    if (pos_ >= src_.size()) throw AlError("unexpected end of input");
    return src_[pos_];
  }

  Value read_form() {
    skip_space();
    char c = peek();
    if (c == '(') return read_list();
    if (c == ')') throw AlError("unexpected ')'");
    if (c == '\'') {
      ++pos_;
      Value quoted = read_form();
      return Value(Value::List{Value::sym("quote"), std::move(quoted)});
    }
    if (c == '"') return read_string();
    return read_atom();
  }

  Value read_list() {
    ++pos_;  // consume '('
    // Items gather on a stack shared by every nesting level, then move into
    // a list allocated once, at its final size.
    const std::size_t base = items_.size();
    while (true) {
      skip_space();
      if (pos_ >= src_.size()) throw AlError("unterminated list");
      if (src_[pos_] == ')') {
        ++pos_;
        auto first = items_.begin() + std::ptrdiff_t(base);
        Value::List items(std::make_move_iterator(first),
                          std::make_move_iterator(items_.end()));
        items_.erase(first, items_.end());
        return Value(std::move(items));
      }
      Value item = read_form();
      items_.push_back(std::move(item));
    }
  }

  Value read_string() {
    ++pos_;  // consume opening quote
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) throw AlError("unterminated string");
      char c = src_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (pos_ >= src_.size()) throw AlError("dangling escape");
        char e = src_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: throw AlError(std::string("unknown escape \\") + e);
        }
      } else {
        out += c;
      }
    }
  }

  static bool atom_char(char c) {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '(' &&
           c != ')' && c != '"' && c != ';' && c != '\'';
  }

  Value read_atom() {
    std::size_t start = pos_;
    while (pos_ < src_.size() && atom_char(src_[pos_])) ++pos_;
    std::string tok = src_.substr(start, pos_ - start);
    if (tok == "nil") return Value::nil();
    if (tok == "#t") return Value(true);
    if (tok == "#f") return Value(false);
    // Locale-independent, range-checked (see al/number.hpp): an integer
    // literal outside int64 range falls through to double; a double
    // literal outside double range falls through to symbol.
    if (std::optional<std::int64_t> i = parse_int64(tok)) return Value(*i);
    if (std::optional<double> d = parse_double(tok)) return Value(*d);
    return Value::sym(std::move(tok));
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::vector<Value> items_;  ///< read_list's item stack
};

}  // namespace

std::vector<Value> read_all(const std::string& source) {
  return Reader(source).read_all();
}

Value read_one(const std::string& source) {
  std::vector<Value> forms = read_all(source);
  if (forms.size() != 1)
    throw AlError("expected exactly one form, got " +
                  std::to_string(forms.size()));
  return forms[0];
}

}  // namespace interop::al
