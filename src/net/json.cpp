#include "net/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace wiloc::net {

namespace {

constexpr std::size_t kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  bool fail(const std::string& what) {
    if (error.empty())
      error = what + " at offset " + std::to_string(pos);
    return false;
  }

  bool consume(char c) {
    if (at_end() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word)
      return fail("bad literal");
    pos += word.size();
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode a BMP code point (no surrogate pairs).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
  }

  bool parse_value(JsonValue* out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = peek();
    if (c == 'n') {
      if (!literal("null")) return false;
      *out = JsonValue::make_null();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      *out = JsonValue::make_bool(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      *out = JsonValue::make_bool(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = JsonValue::make_string(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      std::vector<JsonValue> items;
      skip_ws();
      if (!at_end() && peek() == ']') {
        ++pos;
      } else {
        while (true) {
          JsonValue item;
          if (!parse_value(&item, depth + 1)) return false;
          items.push_back(std::move(item));
          skip_ws();
          if (at_end()) return fail("unterminated array");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          if (!consume(']')) return false;
          break;
        }
      }
      *out = JsonValue::make_array(std::move(items));
      return true;
    }
    if (c == '{') {
      ++pos;
      std::map<std::string, JsonValue> members;
      skip_ws();
      if (!at_end() && peek() == '}') {
        ++pos;
      } else {
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          JsonValue value;
          if (!parse_value(&value, depth + 1)) return false;
          members[std::move(key)] = std::move(value);
          skip_ws();
          if (at_end()) return fail("unterminated object");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          if (!consume('}')) return false;
          break;
        }
      }
      *out = JsonValue::make_object(std::move(members));
      return true;
    }
    // Number. std::from_chars also reads inf, nan, a leading '.' and
    // leading zeros, so the token must match RFC 8259's grammar first.
    const std::size_t start = pos;
    if (!scan_number()) return fail("bad number");
    double value = 0.0;
    const char* begin = text.data() + start;
    const char* end = text.data() + pos;
    if (std::from_chars(begin, end, value).ec != std::errc{})
      return fail("bad number");  // out of double's range
    *out = JsonValue::make_number(value);
    return true;
  }

  /// Advances over `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`;
  /// false when the text at `pos` does not start with that.
  bool scan_number() {
    const auto digits = [this] {
      const std::size_t from = pos;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos;
      return pos > from;
    };
    if (!at_end() && peek() == '-') ++pos;
    if (!at_end() && peek() == '0') {
      ++pos;
    } else if (!digits()) {
      return false;
    }
    if (!at_end() && peek() == '.') {
      ++pos;
      if (!digits()) return false;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      if (!digits()) return false;
    }
    return true;
  }
};

}  // namespace

std::optional<bool> JsonValue::as_bool() const {
  if (type_ != Type::boolean) return std::nullopt;
  return bool_;
}

std::optional<double> JsonValue::as_number() const {
  if (type_ != Type::number) return std::nullopt;
  return number_;
}

const std::string* JsonValue::as_string() const {
  return type_ == Type::string ? &string_ : nullptr;
}

const std::vector<JsonValue>* JsonValue::as_array() const {
  return type_ == Type::array ? &array_ : nullptr;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (type_ != Type::object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::optional<double> JsonValue::get_number(const std::string& key) const {
  const JsonValue* v = get(key);
  return v == nullptr ? std::nullopt : v->as_number();
}

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::boolean;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.type_ = Type::number;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::string;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::array;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::object;
  v.object_ = std::move(members);
  return v;
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, {}};
  JsonValue value;
  if (!p.parse_value(&value, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error != nullptr) *error = "trailing garbage";
    return std::nullopt;
  }
  return value;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace wiloc::net
