// JSON writer and WHOIS record export (plain + RDAP-flavored).
#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/random.h"
#include "whois/json_export.h"

namespace whoiscrf {
namespace {

// Strict UTF-8 (RFC 3629): the code points of `text`, or nullopt on a stray
// continuation byte, a truncated sequence, an overlong form, a surrogate or
// a value above U+10FFFF.
std::optional<std::u32string> DecodeUtf8(std::string_view text) {
  static constexpr char32_t kMin[] = {0, 0, 0x80, 0x800, 0x10000};
  std::u32string out;
  for (size_t i = 0; i < text.size();) {
    const auto lead = static_cast<unsigned char>(text[i]);
    size_t len = 1;
    char32_t cp = lead;
    if (lead >= 0x80) {
      if ((lead & 0xE0) == 0xC0) {
        len = 2, cp = lead & 0x1F;
      } else if ((lead & 0xF0) == 0xE0) {
        len = 3, cp = lead & 0x0F;
      } else if ((lead & 0xF8) == 0xF0) {
        len = 4, cp = lead & 0x07;
      } else {
        return std::nullopt;
      }
      if (text.size() - i < len) return std::nullopt;
      for (size_t k = 1; k < len; ++k) {
        const auto b = static_cast<unsigned char>(text[i + k]);
        if ((b & 0xC0) != 0x80) return std::nullopt;
        cp = (cp << 6) | (b & 0x3F);
      }
      if (cp < kMin[len] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
        return std::nullopt;
      }
    }
    out.push_back(cp);
    i += len;
  }
  return out;
}

// Parses a JSON text that is one string (RFC 8259 sections 7 and 8.1) into
// its code points; nullopt if it is not strict UTF-8 or not a string.
std::optional<std::u32string> ParseJsonString(std::string_view json) {
  const auto cps = DecodeUtf8(json);
  if (!cps || cps->size() < 2 || cps->front() != U'"' || cps->back() != U'"') {
    return std::nullopt;
  }
  const std::u32string& in = *cps;
  const size_t close = in.size() - 1;
  std::u32string out;
  for (size_t i = 1; i < close; ++i) {
    if (in[i] < 0x20 || in[i] == U'"') return std::nullopt;
    if (in[i] != U'\\') {
      out.push_back(in[i]);
      continue;
    }
    if (++i >= close) return std::nullopt;
    switch (in[i]) {
      case U'"': case U'\\': case U'/': out.push_back(in[i]); break;
      case U'b': out.push_back(U'\b'); break;
      case U'f': out.push_back(U'\f'); break;
      case U'n': out.push_back(U'\n'); break;
      case U'r': out.push_back(U'\r'); break;
      case U't': out.push_back(U'\t'); break;
      case U'u': {
        if (i + 4 >= close) return std::nullopt;
        char32_t v = 0;
        for (int k = 0; k < 4; ++k) {
          const char32_t h = in[++i];
          const int d = h >= U'0' && h <= U'9'   ? int(h - U'0')
                        : h >= U'a' && h <= U'f' ? int(h - U'a' + 10)
                        : h >= U'A' && h <= U'F' ? int(h - U'A' + 10)
                                                 : -1;
          if (d < 0) return std::nullopt;
          v = v * 16 + static_cast<char32_t>(d);
        }
        out.push_back(v);
        break;
      }
      default: return std::nullopt;
    }
  }
  return out;
}

// `raw` written as a JSON string value must parse back to `want`.
void ExpectJsonString(std::string_view raw, std::u32string_view want) {
  util::JsonWriter json;
  json.String(raw);
  const auto got = ParseJsonString(json.str());
  ASSERT_TRUE(got.has_value()) << json.str();
  EXPECT_EQ(*got, want) << json.str();
}

TEST(JsonWriterTest, ObjectWithFields) {
  util::JsonWriter json;
  json.BeginObject()
      .Field("a", "x")
      .Key("b").Int(42)
      .Key("c").Bool(true)
      .Key("d").Null()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"a":"x","b":42,"c":true,"d":null})");
}

TEST(JsonWriterTest, NestedStructures) {
  util::JsonWriter json;
  json.BeginObject()
      .Key("list").BeginArray().Int(1).Int(2).EndArray()
      .Key("obj").BeginObject().Field("k", "v").EndObject()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"list":[1,2],"obj":{"k":"v"}})");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(util::JsonWriter::Escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(util::JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(util::JsonWriter::Escape("plain"), "plain");
}

TEST(JsonWriterTest, Latin1BytesBecomeTheirCodePoints) {
  EXPECT_EQ(util::JsonWriter::Escape("Jos\xe9 M\xfcller"),
            "Jos\\u00e9 M\\u00fcller");
  ExpectJsonString("Jos\xe9 M\xfcller", U"Jos\u00e9 M\u00fcller");
  ExpectJsonString("\xff\x80", U"\u00ff\u0080");
}

TEST(JsonWriterTest, WellFormedUtf8PassesThroughUnchanged) {
  const std::string utf8 =
      "Jos\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80 \xf4\x8f\xbf\xbf";
  EXPECT_EQ(util::JsonWriter::Escape(utf8), utf8);
  ExpectJsonString(utf8, U"Jos\u00e9 \u65e5\u672c \U0001F600 \U0010FFFF");
}

TEST(JsonWriterTest, TruncatedSequenceIsEscapedBytewise) {
  EXPECT_EQ(util::JsonWriter::Escape("ab\xe6\x97"), "ab\\u00e6\\u0097");
  ExpectJsonString("ab\xe6\x97", U"ab\u00e6\u0097");
  ExpectJsonString("\xf0\x9f\x98", U"\u00f0\u009f\u0098");
  ExpectJsonString("\xc3", U"\u00c3");
  // A lead byte cut short by ASCII: the ASCII byte is kept as is.
  ExpectJsonString("\xc3\"x", U"\u00c3\"x");
}

TEST(JsonWriterTest, OverlongSurrogateAndOutOfRangeFormsAreEscapedBytewise) {
  EXPECT_EQ(util::JsonWriter::Escape("\xc0\xaf"), "\\u00c0\\u00af");
  ExpectJsonString("\xe0\x80\xaf", U"\u00e0\u0080\u00af");
  ExpectJsonString("\xed\xa0\x80", U"\u00ed\u00a0\u0080");  // U+D800
  ExpectJsonString("\xf4\x90\x80\x80", U"\u00f4\u0090\u0080\u0080");
}

TEST(JsonWriterTest, AnyBytesYieldStrictUtf8Json) {
  // Every byte pair behind an ASCII prefix, then seeded random byte soup.
  // Input that is already strict UTF-8 must round-trip to its code points.
  const auto check = [](const std::string& raw) {
    util::JsonWriter json;
    json.String(raw);
    const auto got = ParseJsonString(json.str());
    ASSERT_TRUE(got.has_value()) << json.str();
    if (const auto cps = DecodeUtf8(raw)) {
      EXPECT_EQ(*got, *cps) << json.str();
    }
  };
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      check({'x', static_cast<char>(a), static_cast<char>(b)});
    }
  }
  util::Rng rng(2015);
  for (int r = 0; r < 2000; ++r) {
    std::string raw(static_cast<size_t>(rng.UniformInt(0, 40)), '\0');
    for (char& c : raw) c = static_cast<char>(rng.UniformInt(0, 255));
    check(raw);
  }
}

TEST(JsonWriterTest, DoubleFormatting) {
  util::JsonWriter json;
  json.BeginArray().Double(0.5).Double(1e308 * 10).EndArray();
  EXPECT_EQ(json.str(), "[0.5,null]");  // inf -> null
}

TEST(JsonWriterTest, FieldIfNonEmptySkipsEmpty) {
  util::JsonWriter json;
  json.BeginObject()
      .FieldIfNonEmpty("keep", "value")
      .FieldIfNonEmpty("drop", "")
      .EndObject();
  EXPECT_EQ(json.str(), R"({"keep":"value"})");
}

whois::ParsedWhois SampleParse() {
  whois::ParsedWhois parsed;
  parsed.domain_name = "EXAMPLE.COM";
  parsed.registrar = "GoDaddy.com, LLC";
  parsed.created = "2010-04-01";
  parsed.expires = "2016-04-01";
  parsed.name_servers = {"ns1.example.com", "ns2.example.com"};
  parsed.statuses = {"clientTransferProhibited"};
  parsed.registrant.name = "John \"JJ\" Smith";
  parsed.registrant.country = "US";
  parsed.registrant.street = {"1 Main St"};
  parsed.log_prob = -0.01;
  return parsed;
}

TEST(JsonExportTest, PlainJsonContainsAllFields) {
  const std::string json = whois::ToJson(SampleParse());
  EXPECT_NE(json.find(R"("domainName":"EXAMPLE.COM")"), std::string::npos);
  EXPECT_NE(json.find(R"("registrar":"GoDaddy.com, LLC")"), std::string::npos);
  EXPECT_NE(json.find(R"("nameServers":["ns1.example.com","ns2.example.com"])"),
            std::string::npos);
  EXPECT_NE(json.find(R"("name":"John \"JJ\" Smith")"), std::string::npos);
  EXPECT_NE(json.find(R"("parseLogProb")"), std::string::npos);
}

TEST(JsonExportTest, Latin1FieldsYieldValidUtf8) {
  whois::ParsedWhois parsed = SampleParse();
  parsed.registrant.name = "Jos\xe9 M\xfcller";
  for (const std::string& json :
       {whois::ToJson(parsed), whois::ToRdapJson(parsed)}) {
    EXPECT_TRUE(DecodeUtf8(json).has_value()) << json;
    EXPECT_NE(json.find("\"Jos\\u00e9 M\\u00fcller\""), std::string::npos)
        << json;
  }
}

TEST(JsonExportTest, PlainJsonOmitsEmptyFields) {
  whois::ParsedWhois parsed;
  parsed.domain_name = "X.COM";
  const std::string json = whois::ToJson(parsed);
  EXPECT_EQ(json.find("registrar"), std::string::npos);
  EXPECT_EQ(json.find("registrant"), std::string::npos);
}

TEST(JsonExportTest, RdapShape) {
  const std::string json = whois::ToRdapJson(SampleParse());
  EXPECT_NE(json.find(R"("objectClassName":"domain")"), std::string::npos);
  EXPECT_NE(json.find(R"("eventAction":"registration")"), std::string::npos);
  EXPECT_NE(json.find(R"("eventAction":"expiration")"), std::string::npos);
  // No "last changed" event: updated is empty.
  EXPECT_EQ(json.find("last changed"), std::string::npos);
  EXPECT_NE(json.find(R"("roles":["registrar"])"), std::string::npos);
  EXPECT_NE(json.find(R"("roles":["registrant"])"), std::string::npos);
  EXPECT_NE(json.find(R"("ldhName":"ns1.example.com")"), std::string::npos);
}

}  // namespace
}  // namespace whoiscrf
