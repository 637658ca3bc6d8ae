#include "campaign/record_io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace rh::campaign {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& detail) {
  throw common::ConfigError("malformed JSON in " + what + ": " + detail);
}

/// Cursor over the input; the parser functions advance it.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  const std::string& what;

  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) ++pos;
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(what, std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (eof()) fail(what, "unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f' || c == 'n') return parse_keyword();
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key.text), parse_value());
      skip_ws();
      if (eof()) fail(what, "unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (eof()) fail(what, "unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (!eof() && peek() != '"') {
      char c = peek();
      if (c == '\\') {
        ++pos;
        if (eof()) fail(what, "unterminated escape");
        switch (peek()) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            // The writer only emits \u00xx control escapes; decode those.
            if (pos + 4 >= text.size()) fail(what, "truncated \\u escape");
            const std::string hex(text.substr(pos + 1, 4));
            c = static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16) & 0xff);
            pos += 4;
            break;
          }
          default: fail(what, "unsupported escape");
        }
      }
      v.text += c;
      ++pos;
    }
    expect('"');
    return v;
  }

  JsonValue parse_keyword() {
    JsonValue v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
    } else if (consume_literal("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      fail(what, "unknown keyword");
    }
    return v;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' || peek() == 'e' ||
                      peek() == 'E' || peek() == '-' || peek() == '+')) {
      ++pos;
    }
    if (pos == start) fail(what, "expected a value");
    v.text = std::string(text.substr(start, pos - start));
    return v;
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw common::ConfigError("record is missing field \"" + std::string(key) + "\"");
  }
  return *v;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber) throw common::ConfigError("field is not a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || errno == ERANGE) {
    throw common::ConfigError("field is not a valid number: " + text);
  }
  return v;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind != Kind::kNumber) throw common::ConfigError("field is not a number");
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || text[0] == '-') {
    throw common::ConfigError("field is not a valid unsigned integer: " + text);
  }
  return v;
}

JsonValue parse_json(std::string_view text, const std::string& what) {
  Parser p{text, 0, what};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (!p.eof()) fail(what, "trailing characters after document");
  return v;
}

std::string format_double_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_row_record_json(std::string& out, const core::RowRecord& record) {
  out += "{\"ch\":" + std::to_string(record.site.channel);
  out += ",\"pc\":" + std::to_string(record.site.pseudo_channel);
  out += ",\"bk\":" + std::to_string(record.site.bank);
  out += ",\"row\":" + std::to_string(record.physical_row);
  out += ",\"wcdp\":" + std::to_string(static_cast<std::size_t>(record.wcdp));
  out += ",\"ber\":[";
  for (std::size_t i = 0; i < record.ber.size(); ++i) {
    const auto& b = record.ber[i];
    if (i != 0) out += ',';
    out += "{\"e\":" + std::to_string(b.bit_errors);
    out += ",\"t\":" + std::to_string(b.bits_tested);
    out += ",\"oz\":" + std::to_string(b.ones_to_zeros);
    out += ",\"zo\":" + std::to_string(b.zeros_to_ones);
    out += ",\"ms\":" + format_double_exact(b.elapsed_ms) + "}";
  }
  out += "],\"hc\":[";
  for (std::size_t i = 0; i < record.hc_first.size(); ++i) {
    if (i != 0) out += ',';
    out += record.hc_first[i] ? std::to_string(*record.hc_first[i]) : "null";
  }
  out += "]}";
}

core::RowRecord parse_row_record(const JsonValue& value) {
  core::RowRecord record;
  record.site.channel = static_cast<std::uint32_t>(value.at("ch").as_u64());
  record.site.pseudo_channel = static_cast<std::uint32_t>(value.at("pc").as_u64());
  record.site.bank = static_cast<std::uint32_t>(value.at("bk").as_u64());
  record.physical_row = static_cast<std::uint32_t>(value.at("row").as_u64());
  const std::uint64_t wcdp = value.at("wcdp").as_u64();
  if (wcdp >= core::kAllPatterns.size()) {
    throw common::ConfigError("journal record has out-of-range wcdp index");
  }
  record.wcdp = core::kAllPatterns[wcdp];

  const JsonValue& ber = value.at("ber");
  const JsonValue& hc = value.at("hc");
  if (ber.items.size() != record.ber.size() || hc.items.size() != record.hc_first.size()) {
    throw common::ConfigError("journal record has wrong per-pattern array length");
  }
  for (std::size_t i = 0; i < record.ber.size(); ++i) {
    const JsonValue& b = ber.items[i];
    record.ber[i].bit_errors = b.at("e").as_u64();
    record.ber[i].bits_tested = b.at("t").as_u64();
    record.ber[i].ones_to_zeros = b.at("oz").as_u64();
    record.ber[i].zeros_to_ones = b.at("zo").as_u64();
    record.ber[i].elapsed_ms = b.at("ms").as_double();
    if (hc.items[i].kind != JsonValue::Kind::kNull) {
      record.hc_first[i] = hc.items[i].as_u64();
    }
  }
  return record;
}

}  // namespace rh::campaign
