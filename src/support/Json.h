//===- support/Json.h - Minimal JSON writer, parser, validator --*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON toolkit shared by the observability layer: a
/// streaming writer (JsonWriter) used by the trace/metrics exporters and
/// the run-report builder, and a small DOM (JsonValue + parseJson/dumpJson)
/// used by tests and the json-check tool to prove every machine-readable
/// artifact the pipeline emits actually parses. The parser is strict
/// (RFC 8259 grammar, depth-limited, whole-input) so "json-check accepted
/// it" means any real consumer will too; it exists precisely so `make
/// reports` needs no external validator.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_JSON_H
#define EEL_SUPPORT_JSON_H

#include "support/Error.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace eel {

/// Escapes \p In for inclusion inside a JSON string literal.
inline std::string jsonEscape(const std::string &In) {
  std::string Out;
  Out.reserve(In.size());
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// A streaming JSON builder. Caller drives structure (beginObject/key/
/// value/endObject); the writer tracks comma placement. No pretty-printing
/// beyond optional two-space indentation, which keeps diffs of committed
/// reports readable.
class JsonWriter {
public:
  explicit JsonWriter(bool Indent = true) : Indent(Indent) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(const std::string &K) {
    comma();
    Out += '"';
    Out += jsonEscape(K);
    Out += "\": ";
    PendingKey = true;
  }

  void value(const std::string &V) { raw('"' + jsonEscape(V) + '"'); }
  void value(const char *V) { value(std::string(V)); }
  void value(bool V) { raw(V ? "true" : "false"); }
  void value(uint64_t V) { raw(std::to_string(V)); }
  void value(int64_t V) { raw(std::to_string(V)); }
  void value(int V) { raw(std::to_string(V)); }
  void value(unsigned V) { raw(std::to_string(V)); }
  void value(double V) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    raw(Buf);
  }
  /// Hex-formatted integer emitted as a JSON string ("0x1a2b").
  void valueHex(uint64_t V) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "\"0x%llx\"",
                  static_cast<unsigned long long>(V));
    raw(Buf);
  }
  /// Splices pre-rendered JSON (e.g. a nested document) as one value.
  void valueRaw(const std::string &Json) { raw(Json); }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  void comma() {
    if (!First)
      Out += Indent ? ",\n" : ", ";
    else if (!Stack.empty())
      Out += Indent ? "\n" : "";
    First = false;
    if (Indent && !PendingKey)
      Out.append(2 * Stack.size(), ' ');
  }

  void open(char C) {
    if (!PendingKey)
      comma();
    PendingKey = false;
    Out += C;
    Stack.push_back(C);
    First = true;
  }

  void close(char C) {
    Stack.pop_back();
    if (!First && Indent) {
      Out += '\n';
      Out.append(2 * Stack.size(), ' ');
    }
    Out += C;
    First = false;
  }

  void raw(const std::string &V) {
    if (!PendingKey)
      comma();
    PendingKey = false;
    Out += V;
  }

  std::string Out;
  std::vector<char> Stack;
  bool First = true;
  bool PendingKey = false;
  bool Indent;
};

/// A parsed JSON value. Object member order is preserved so dumping is
/// stable, which lets tests assert round-trip fixpoints.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  std::string Num; ///< Verbatim number text (round-trip-exact).
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, Value] : Obj)
      if (Name == Key)
        return &Value;
    return nullptr;
  }

  double asNumber() const { return Num.empty() ? 0.0 : std::stod(Num); }
};

namespace json_detail {

class Parser {
public:
  Parser(const std::string &Text) : Text(Text) {}

  Expected<JsonValue> run() {
    skipWs();
    Expected<JsonValue> V = parseValue(0);
    if (V.hasError())
      return V;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing bytes after JSON document");
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  Error fail(const std::string &Msg) {
    return Error("JSON parse error at byte " + std::to_string(Pos) + ": " +
                 Msg);
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Expected<JsonValue> parseValue(unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"')
      return parseString();
    if (C == 't' || C == 'f')
      return parseBool();
    if (C == 'n') {
      if (Text.compare(Pos, 4, "null") != 0)
        return fail("bad literal");
      Pos += 4;
      return JsonValue();
    }
    return parseNumber();
  }

  Expected<JsonValue> parseObject(unsigned Depth) {
    JsonValue V;
    V.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (eat('}'))
      return V;
    while (true) {
      skipWs();
      Expected<JsonValue> Key = parseString();
      if (Key.hasError())
        return Key.error();
      skipWs();
      if (!eat(':'))
        return fail("expected ':' in object");
      skipWs();
      Expected<JsonValue> Member = parseValue(Depth + 1);
      if (Member.hasError())
        return Member;
      V.Obj.emplace_back(Key.value().Str, Member.takeValue());
      skipWs();
      if (eat('}'))
        return V;
      if (!eat(','))
        return fail("expected ',' or '}' in object");
    }
  }

  Expected<JsonValue> parseArray(unsigned Depth) {
    JsonValue V;
    V.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (eat(']'))
      return V;
    while (true) {
      skipWs();
      Expected<JsonValue> Elem = parseValue(Depth + 1);
      if (Elem.hasError())
        return Elem;
      V.Arr.push_back(Elem.takeValue());
      skipWs();
      if (eat(']'))
        return V;
      if (!eat(','))
        return fail("expected ',' or ']' in array");
    }
  }

  Expected<JsonValue> parseString() {
    if (!eat('"'))
      return fail("expected string");
    JsonValue V;
    V.K = JsonValue::Kind::String;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return V;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        V.Str += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        V.Str += E;
        break;
      case 'b':
        V.Str += '\b';
        break;
      case 'f':
        V.Str += '\f';
        break;
      case 'n':
        V.Str += '\n';
        break;
      case 'r':
        V.Str += '\r';
        break;
      case 't':
        V.Str += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode (no surrogate-pair recombination: our own emitters
        // only escape control characters, which fit one unit).
        if (Code < 0x80) {
          V.Str += static_cast<char>(Code);
        } else if (Code < 0x800) {
          V.Str += static_cast<char>(0xC0 | (Code >> 6));
          V.Str += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          V.Str += static_cast<char>(0xE0 | (Code >> 12));
          V.Str += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          V.Str += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Expected<JsonValue> parseBool() {
    JsonValue V;
    V.K = JsonValue::Kind::Bool;
    if (Text.compare(Pos, 4, "true") == 0) {
      V.B = true;
      Pos += 4;
      return V;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      V.B = false;
      Pos += 5;
      return V;
    }
    return fail("bad literal");
  }

  Expected<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (eat('-')) {
    }
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("expected value");
    if (Text[Pos] == '0')
      ++Pos;
    else
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    if (eat('.')) {
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required after decimal point");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required in exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    JsonValue V;
    V.K = JsonValue::Kind::Number;
    V.Num = Text.substr(Start, Pos - Start);
    return V;
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace json_detail

/// Parses \p Text as one complete JSON document.
inline Expected<JsonValue> parseJson(const std::string &Text) {
  return json_detail::Parser(Text).run();
}

/// Canonical single-line serialization of a parsed value. Number text is
/// emitted verbatim, so dump(parse(dump(x))) == dump(x).
inline std::string dumpJson(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return V.B ? "true" : "false";
  case JsonValue::Kind::Number:
    return V.Num;
  case JsonValue::Kind::String:
    return '"' + jsonEscape(V.Str) + '"';
  case JsonValue::Kind::Array: {
    std::string S = "[";
    for (size_t I = 0; I < V.Arr.size(); ++I) {
      if (I)
        S += ",";
      S += dumpJson(V.Arr[I]);
    }
    return S + "]";
  }
  case JsonValue::Kind::Object: {
    std::string S = "{";
    for (size_t I = 0; I < V.Obj.size(); ++I) {
      if (I)
        S += ",";
      S += '"' + jsonEscape(V.Obj[I].first) + "\":" + dumpJson(V.Obj[I].second);
    }
    return S + "}";
  }
  }
  return "null";
}

} // namespace eel

#endif // EEL_SUPPORT_JSON_H
