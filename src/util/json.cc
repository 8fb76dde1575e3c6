#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/byte_scan.h"

namespace whoiscrf::util {

namespace {

// Length of the well-formed UTF-8 sequence starting at s[i] (RFC 3629
// section 4: no overlong forms, no surrogates, nothing above U+10FFFF), or
// 0 when s[i] does not start one.
size_t Utf8SequenceLength(std::string_view s, size_t i) {
  const auto byte = [&s](size_t k) { return static_cast<unsigned char>(s[k]); };
  const unsigned char lead = byte(i);
  size_t len = 0;
  unsigned char lo = 0x80;  // bounds of the second byte
  unsigned char hi = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    if (lead == 0xE0) lo = 0xA0;
    if (lead == 0xED) hi = 0x9F;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    if (lead == 0xF0) lo = 0x90;
    if (lead == 0xF4) hi = 0x8F;
  } else {
    return 0;
  }
  if (s.size() - i < len || byte(i + 1) < lo || byte(i + 1) > hi) return 0;
  for (size_t k = 2; k < len; ++k) {
    if (byte(i + k) < 0x80 || byte(i + k) > 0xBF) return 0;
  }
  return len;
}

// Escapes `raw` directly onto `out`. Clean runs (everything outside the
// kJsonStop class: < 0x20, '"', '\\', >= 0x80) are located with a class-table
// scan and appended in bulk, so the common all-clean string costs one pass
// and one append. Well-formed UTF-8 passes through unchanged; any other
// byte >= 0x80 is written as its Latin-1 code point \u00XX, so the output
// is valid UTF-8 whatever the input bytes (docs/formats.md).
void AppendEscapedTo(std::string& out, std::string_view raw) {
  size_t run = 0;  // start of the current clean run
  for (size_t i = scan::FindClass(raw, scan::kJsonStop);
       i != std::string_view::npos;
       i = scan::FindClass(raw, scan::kJsonStop, i + 1)) {
    const unsigned char c = static_cast<unsigned char>(raw[i]);
    if (const size_t utf8 = c >= 0x80 ? Utf8SequenceLength(raw, i) : 0) {
      i += utf8 - 1;  // stays in the clean run
      continue;
    }
    out.append(raw, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(raw, run, raw.size() - run);
}

}  // namespace

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  AppendEscapedTo(out, raw);
  return out;
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_.back()) out_ += ',';
  need_comma_.back() = true;
}

// NOLINTBEGIN(readability-identifier-naming)
JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  AppendEscapedTo(out_, key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  AppendEscapedTo(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  return String(value);
}

JsonWriter& JsonWriter::FieldIfNonEmpty(std::string_view key,
                                        std::string_view value) {
  if (value.empty()) return *this;
  return Field(key, value);
}
// NOLINTEND(readability-identifier-naming)

}  // namespace whoiscrf::util
