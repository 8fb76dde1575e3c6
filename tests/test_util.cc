// Utility layer: byte scans, string helpers, deterministic RNG, tables,
// thread pool.
#include <atomic>
#include <cctype>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/byte_scan.h"
#include "util/env.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace whoiscrf::util {
namespace {

// --- Byte scans (util/byte_scan.h) -----------------------------------------

namespace scan_ref {

constexpr size_t npos = std::string_view::npos;

// Each class spelled out from its definition, not from the class table.
bool InRefClass(unsigned char c, uint8_t mask) {
  const bool ascii = c < 0x80;
  const auto has = [&](uint8_t bit) { return (mask & bit) != 0; };
  return (has(scan::kSpace) && ascii && std::isspace(c)) ||
         (has(scan::kDigit) && ascii && std::isdigit(c)) ||
         (has(scan::kUpper) && ascii && std::isupper(c)) ||
         (has(scan::kLower) && ascii && std::islower(c)) ||
         (has(scan::kNewline) && (c == '\n' || c == '\r')) ||
         (has(scan::kJsonStop) &&
          (c < 0x20 || c == '"' || c == '\\' || c >= 0x80)) ||
         (has(scan::kEdgePunct) && c != 0 &&
          std::strchr(",.;\"'()[]<>*#%!?", c) != nullptr) ||
         (has(scan::kSepTrigger) && c != 0 &&
          std::strchr(":.\t= ", c) != nullptr);
}

size_t FindRef(std::string_view s, uint8_t mask, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (InRefClass(static_cast<unsigned char>(s[i]), mask)) return i;
  }
  return npos;
}

// Every byte value in order and reversed, clean runs of every length, and
// seeded random byte soup.
std::vector<std::string> Inputs() {
  std::vector<std::string> inputs = {""};
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  inputs.push_back(all);
  inputs.emplace_back(all.rbegin(), all.rend());
  for (size_t n = 1; n <= 40; ++n) inputs.emplace_back(n, 'x');
  Rng rng(20260808);
  for (int r = 0; r < 200; ++r) {
    std::string soup;
    const int64_t n = rng.UniformInt(0, 130);
    for (int64_t i = 0; i < n; ++i) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    inputs.push_back(std::move(soup));
  }
  return inputs;
}

}  // namespace scan_ref

TEST(ByteScanEquivalence, FindClassMatchesReferenceForEveryMask) {
  const uint8_t masks[] = {scan::kSpace,      scan::kDigit,   scan::kUpper,
                           scan::kLower,      scan::kNewline, scan::kJsonStop,
                           scan::kEdgePunct,  scan::kSepTrigger,
                           scan::kAlpha,      scan::kAlnum};
  for (int b = 0; b < 256; ++b) {
    for (const uint8_t mask : masks) {
      ASSERT_EQ(scan::InClass(static_cast<char>(b), mask),
                scan_ref::InRefClass(static_cast<unsigned char>(b), mask))
          << "byte=" << b << " mask=" << int(mask);
    }
  }
  for (const std::string& s : scan_ref::Inputs()) {
    for (size_t from = 0; from <= s.size() + 2; ++from) {
      for (const uint8_t mask : masks) {
        ASSERT_EQ(scan::FindClass(s, mask, from),
                  scan_ref::FindRef(s, mask, from))
            << "len=" << s.size() << " from=" << from << " mask=" << int(mask);
      }
      size_t want = scan_ref::npos;
      for (size_t i = from; i < s.size() && want == scan_ref::npos; ++i) {
        if (!std::isspace(static_cast<unsigned char>(s[i]))) want = i;
      }
      ASSERT_EQ(scan::SkipSpace(s, from), want)
          << "len=" << s.size() << " from=" << from;
    }
  }
}

TEST(ByteScanEquivalence, PredicatesAndLowercasingMatchScalarReference) {
  for (const std::string& s : scan_ref::Inputs()) {
    bool alnum = false;
    bool digits = !s.empty();
    std::string lowered = s;
    for (char& c : lowered) {
      const auto u = static_cast<unsigned char>(c);
      alnum = alnum || (u < 0x80 && std::isalnum(u));
      digits = digits && u < 0x80 && std::isdigit(u);
      if (u < 0x80) c = static_cast<char>(std::tolower(u));
    }
    EXPECT_EQ(scan::HasAlnum(s), alnum) << "len=" << s.size();
    EXPECT_EQ(scan::AllDigits(s), digits) << "len=" << s.size();
    std::string out(s.size(), '\0');
    scan::AsciiLower(s.data(), s.size(), out.data());
    EXPECT_EQ(out, lowered);
    std::string inplace = s;  // in == out is part of the contract
    scan::AsciiLower(inplace.data(), inplace.size(), inplace.data());
    EXPECT_EQ(inplace, lowered);
  }
}

TEST(ByteScanTest, EdgeCases) {
  // `from` at or past the end returns npos for both scans.
  EXPECT_EQ(scan::FindClass("abc", scan::kAlpha, 3), scan_ref::npos);
  EXPECT_EQ(scan::FindClass("abc", scan::kAlpha, 10), scan_ref::npos);
  EXPECT_EQ(scan::SkipSpace("abc", 4), scan_ref::npos);
  EXPECT_EQ(scan::FindClass("", scan::kSpace), scan_ref::npos);
  EXPECT_EQ(scan::SkipSpace(" \t\r\n"), scan_ref::npos);
  // Bytes >= 0x80 are in no class but the JSON stop class.
  for (int b = 0x80; b < 0x100; ++b) {
    EXPECT_EQ(scan::ClassOf(static_cast<char>(b)), scan::kJsonStop) << b;
  }
  EXPECT_FALSE(scan::AllDigits(""));
  EXPECT_FALSE(scan::HasAlnum("\xc3\xa9"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\r\n x \t"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(TrimLeft("  a "), "a ");
  EXPECT_EQ(TrimRight("  a "), "  a");
}

TEST(StringUtilTest, Case) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(StringUtilTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitWhitespace) {
  const auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, SplitLines) {
  const auto lines = SplitLines("a\nb\r\nc\rd");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
  EXPECT_EQ(lines[3], "d");
}

TEST(StringUtilTest, JoinAndReplace) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, CaseInsensitiveSearch) {
  EXPECT_TRUE(ContainsIgnoreCase("Whois Server: X", "whois server"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abd"));
  EXPECT_TRUE(EqualsIgnoreCase("GoDaddy", "godaddy"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_TRUE(IsDigits("12345"));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_TRUE(HasAlnum(" a "));
  EXPECT_FALSE(HasAlnum("---"));
}

TEST(StringUtilTest, WithCommasAndFormat) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
  EXPECT_EQ(Format("%d-%s", 5, "x"), "5-x");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(43);
  EXPECT_NE(Rng(42).NextU64(), c.NextU64());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // every value hit
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_THROW(rng.UniformInt(7, 3), std::invalid_argument);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
  EXPECT_THROW(rng.WeightedIndex(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rng.WeightedIndex(std::vector<double>{-1.0, 2.0}),
               std::invalid_argument);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfIsDecreasing) {
  Rng rng(5);
  std::vector<size_t> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, GaussianMoments) {
  Rng rng(8);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"Country", "Number", "(% All)"});
  table.AddRow({"United States", "34,236,575", "(47.6)"});
  table.AddRow({"China", "6,908,865", "(9.6)"});
  table.AddSeparator();
  table.AddRow({"Total", "71,865,317", "(100.0)"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("United States"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Right alignment: the numbers line up at the right edge.
  EXPECT_NE(out.find("  6,908,865"), std::string::npos);
}

TEST(TextTableTest, RejectsBadRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksPartitionExactly) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelChunks(10, [&](size_t begin, size_t end, size_t) {
    total += end - begin;
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   4, [](size_t i) {
                     if (i == 2) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(EnvTest, ScaledAppliesFloor) {
  // Without WHOISCRF_SCALE set, Scaled is identity (with floor).
  EXPECT_EQ(Scaled(100), 100u);
  EXPECT_EQ(Scaled(0, 5), 5u);
  EXPECT_EQ(EnvInt("WHOISCRF_NONEXISTENT_VAR", 7), 7);
  EXPECT_EQ(EnvString("WHOISCRF_NONEXISTENT_VAR", "x"), "x");
}

}  // namespace
}  // namespace whoiscrf::util
