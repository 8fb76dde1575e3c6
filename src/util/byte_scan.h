// Table-driven byte scanning for the text hot path.
//
// Line splitting, whitespace word splitting, separator detection, %%-frame
// scanning, and JSON escaping all look for the next byte of some class.
// One 256-entry classification table answers "is this byte in the class"
// with a single indexed load, and every scan is a forward walk over it.
// Record lines average ~35 bytes, so a scan is a short table walk inside a
// ~70 us parse; wider SWAR/SIMD kernels measured no faster end to end
// (docs/architecture.md "Text hot path").
//
// Adding a new byte class: add a bit constant below, set it for the
// class's bytes in BuildClassTable(), and use FindClass / InClass.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace whoiscrf::util::scan {

// --- Byte classification ---------------------------------------------------
//
// One bit per class; masks can be OR-combined (kAlnum below). Bytes >= 0x80
// are in no class but kJsonStop.

inline constexpr uint8_t kSpace = 1u << 0;       // ' ' \t \n \v \f \r
inline constexpr uint8_t kDigit = 1u << 1;       // 0-9
inline constexpr uint8_t kUpper = 1u << 2;       // A-Z
inline constexpr uint8_t kLower = 1u << 3;       // a-z
inline constexpr uint8_t kNewline = 1u << 4;     // \n \r
inline constexpr uint8_t kJsonStop = 1u << 5;    // < 0x20, '"', '\\', >= 0x80
inline constexpr uint8_t kEdgePunct = 1u << 6;   // tokenizer edge punctuation
inline constexpr uint8_t kSepTrigger = 1u << 7;  // : . \t = ' ' (separator.cc)
inline constexpr uint8_t kAlpha = kUpper | kLower;
inline constexpr uint8_t kAlnum = kAlpha | kDigit;

namespace detail {
constexpr std::array<uint8_t, 256> BuildClassTable() {
  std::array<uint8_t, 256> t{};
  auto add = [&t](unsigned char c, uint8_t bit) { t[c] |= bit; };
  for (const char c : {' ', '\t', '\n', '\r', '\f', '\v'}) {
    add(static_cast<unsigned char>(c), kSpace);
  }
  for (unsigned c = '0'; c <= '9'; ++c) add(c, kDigit);
  for (unsigned c = 'A'; c <= 'Z'; ++c) add(c, kUpper);
  for (unsigned c = 'a'; c <= 'z'; ++c) add(c, kLower);
  add('\n', kNewline);
  add('\r', kNewline);
  for (unsigned c = 0; c < 0x20; ++c) add(c, kJsonStop);
  add('"', kJsonStop);
  add('\\', kJsonStop);
  for (unsigned c = 0x80; c < 0x100; ++c) add(c, kJsonStop);
  for (const char c : {',', '.', ';', '"', '\'', '(', ')', '[', ']', '<', '>',
                       '*', '#', '%', '!', '?'}) {
    add(static_cast<unsigned char>(c), kEdgePunct);
  }
  for (const char c : {':', '.', '\t', '=', ' '}) {
    add(static_cast<unsigned char>(c), kSepTrigger);
  }
  return t;
}
}  // namespace detail

inline constexpr std::array<uint8_t, 256> kClassTable =
    detail::BuildClassTable();

inline constexpr uint8_t ClassOf(char c) {
  return kClassTable[static_cast<unsigned char>(c)];
}
inline constexpr bool InClass(char c, uint8_t mask) {
  return (ClassOf(c) & mask) != 0;
}

// --- Scans -----------------------------------------------------------------
//
// Both return an index into `s` (>= from), or std::string_view::npos when
// no byte qualifies. `from` past the end is allowed and returns npos.

// First byte in any class of `mask`.
inline size_t FindClass(std::string_view s, uint8_t mask, size_t from = 0) {
  for (size_t i = from; i < s.size(); ++i) {
    if (InClass(s[i], mask)) return i;
  }
  return std::string_view::npos;
}

// First byte that is NOT whitespace.
inline size_t SkipSpace(std::string_view s, size_t from = 0) {
  for (size_t i = from; i < s.size(); ++i) {
    if (!InClass(s[i], kSpace)) return i;
  }
  return std::string_view::npos;
}

// True if any byte is ASCII alphanumeric.
inline bool HasAlnum(std::string_view s) {
  return FindClass(s, kAlnum) != std::string_view::npos;
}

// True if non-empty and every byte is an ASCII digit.
inline bool AllDigits(std::string_view s) {
  for (const char c : s) {
    if (!InClass(c, kDigit)) return false;
  }
  return !s.empty();
}

// ASCII-lowercases n bytes from `in` into `out` (in == out is fine;
// other overlaps are not). Bytes outside A-Z are copied untouched.
inline void AsciiLower(const char* in, size_t n, char* out) {
  for (size_t i = 0; i < n; ++i) {
    const char c = in[i];
    out[i] = InClass(c, kUpper) ? static_cast<char>(c | 0x20) : c;
  }
}

}  // namespace whoiscrf::util::scan
