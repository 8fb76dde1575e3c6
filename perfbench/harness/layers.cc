// The text / crf / whois split of one parse.
//
// WhoisParser::Parse fuses its stages: a compile-cache miss tokenizes the
// line once for both CRF levels and scores it inside the parser, and
// fields are routed from plans cached per line. Neither step has a public
// entry point, so the cost of a miss is taken from Parse itself, by timing
// it over the same records with a cold and then a warm line cache. The
// stages Parse does call through public functions (SplitRecordInto,
// Decode, LogPartition, ToJson, the tokenizer's ExtractTo) are timed by a
// replay that makes those calls. The replay gets its scores from the
// unfused path (CompileInto, ComputeScores) and its fields from
// ExtractFields, the calls crf::Tagger, ParseNaive and the rule baseline
// make; their times are reported as the cost of that path, not of Parse.

#include <sys/stat.h>

#include <algorithm>
#include <set>
#include <span>
#include <string_view>

#include "crf/inference.h"
#include "crf/viterbi.h"
#include "crf/workspace.h"
#include "text/line_splitter.h"
#include "text/tokenizer.h"
#include "util/chunk_reader.h"
#include "whois/json_export.h"
#include "whois/record_stream.h"
#include "workloads.h"

namespace perfbench {

namespace wh = whoiscrf::whois;
namespace crf = whoiscrf::crf;
namespace text = whoiscrf::text;

namespace {

// Consumes the tokenizer's attribute stream without interning it, so the
// timing covers extraction alone (what a compile-cache miss pays before
// the vocabulary probes).
class CountingSink final : public text::AttrSink {
 public:
  void OnAttr(std::string_view attr, bool) override { bytes += attr.size(); }
  size_t bytes = 0;
};

std::string LineKey(const text::Line& line) {
  std::string key;
  key.push_back(static_cast<char>((line.preceded_by_blank ? 1 : 0) |
                                  (line.shift_left ? 2 : 0) |
                                  (line.shift_right ? 4 : 0) |
                                  (line.starts_with_symbol ? 8 : 0) |
                                  (line.has_tab ? 16 : 0)));
  key += line.text;
  return key;
}

struct StageClock {
  uint64_t last = NowNs();
  double Lap() {
    const uint64_t now = NowNs();
    const double us = static_cast<double>(now - last) * 1e-3;
    last = now;
    return us;
  }
};

// Cost of one compile-cache miss inside Parse. Each repetition primes a
// fresh workspace on other records (so slot buffers exist, as in a long
// run), parses `measured` once cold and once warm, and divides the time
// difference by the difference in misses.
void MeasureMissCost(const WhoisParser& parser,
                     const std::vector<std::string>& primer,
                     const std::vector<std::string>& measured,
                     RunResult& result) {
  const auto timed_pass = [&](wh::ParseWorkspace& ws, double& us,
                              uint64_t& misses) {
    const uint64_t misses0 =
        CounterValue("whoiscrf_compile_cache_misses_total");
    const uint64_t start = NowNs();
    for (const std::string& record : measured) parser.Parse(record, ws);
    us = static_cast<double>(NowNs() - start) * 1e-3;
    misses = CounterValue("whoiscrf_compile_cache_misses_total") - misses0;
  };
  std::vector<double> costs;
  for (int rep = 0; rep < 7; ++rep) {
    wh::ParseWorkspace ws;
    for (const std::string& record : primer) parser.Parse(record, ws);
    double cold_us = 0, warm_us = 0;
    uint64_t cold_misses = 0, warm_misses = 0;
    timed_pass(ws, cold_us, cold_misses);
    timed_pass(ws, warm_us, warm_misses);
    if (cold_misses > warm_misses) {
      costs.push_back((cold_us - warm_us) /
                      static_cast<double>(cold_misses - warm_misses));
    }
  }
  if (costs.empty()) {
    result.Fail("no compile-cache misses to measure");
    return;
  }
  result.Set("crf.compile_us_per_miss_line", Median(costs), "us");
}

}  // namespace

void ReplayLayers(const WhoisParser& parser,
                  const std::vector<std::string>& sample, RunResult& result) {
  // Small enough that the measured records' lines fit the line cache, so
  // the warm pass is nearly all hits.
  const size_t half = std::min<size_t>(512, sample.size() / 2);
  MeasureMissCost(
      parser,
      std::vector<std::string>(sample.begin() + half,
                               sample.begin() + 2 * half),
      std::vector<std::string>(sample.begin(), sample.begin() + half),
      result);

  const text::Tokenizer tokenizer(parser.options().tokenizer);
  const crf::CrfModel& level1 = parser.level1_model();
  const crf::CrfModel& level2 = parser.level2_model();

  crf::Workspace cws;
  wh::ParseWorkspace pws;
  std::vector<text::Line> lines;
  std::vector<const text::Line*> block;
  std::vector<wh::Level1Label> labels;
  std::vector<wh::Level2Label> subs, other_subs;

  double split_us = 0, unary_us = 0, viterbi_us = 0;
  double logz_us = 0, extract_us = 0, json_us = 0;
  uint64_t records = 0, scored_lines = 0, json_bytes = 0, mismatched = 0;

  // Level-2 stages over one block of level-1 lines (registrant / other).
  const auto tag_block = [&](wh::Level1Label which,
                             std::vector<wh::Level2Label>& out,
                             StageClock& clock) {
    block.clear();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (labels[i] == which) block.push_back(&lines[i]);
    }
    out.clear();
    if (block.empty()) return;
    level2.CompileInto(tokenizer,
                       std::span<const text::Line* const>(block.data(),
                                                          block.size()),
                       cws);
    clock.Lap();
    level2.ComputeScores(cws.seq, cws.scores);
    unary_us += clock.Lap();
    scored_lines += block.size();
    const crf::ViterbiResult& sub = crf::Decode(cws.scores, cws);
    for (int label : sub.labels) {
      out.push_back(static_cast<wh::Level2Label>(label));
    }
    viterbi_us += clock.Lap();
  };

  for (const std::string& record : sample) {
    const ParsedWhois expected = parser.Parse(record, pws);
    StageClock clock;
    text::SplitRecordInto(record, lines);
    split_us += clock.Lap();
    ++records;
    if (lines.empty()) continue;

    level1.CompileInto(tokenizer,
                       std::span<const text::Line>(lines.data(), lines.size()),
                       cws);
    clock.Lap();
    level1.ComputeScores(cws.seq, cws.scores);
    unary_us += clock.Lap();
    scored_lines += lines.size();
    const crf::ViterbiResult& best = crf::Decode(cws.scores, cws);
    const double score = best.score;
    labels.clear();
    for (int label : best.labels) {
      labels.push_back(static_cast<wh::Level1Label>(label));
    }
    viterbi_us += clock.Lap();
    const double log_z = crf::LogPartition(cws.scores, cws);
    logz_us += clock.Lap();

    tag_block(wh::Level1Label::kRegistrant, subs, clock);
    tag_block(wh::Level1Label::kOther, other_subs, clock);

    ParsedWhois out;
    out.line_labels = labels;
    out.log_prob = score - log_z;
    clock.Lap();
    wh::ExtractFields(lines, labels, subs, out, other_subs);
    extract_us += clock.Lap();
    const std::string json = wh::ToJson(out);
    json_us += clock.Lap();
    json_bytes += json.size();
    if (labels != expected.line_labels || json != wh::ToJson(expected)) {
      ++mismatched;
    }
  }

  // Tokenizer extraction over the sample's distinct lines: in a cold
  // compile cache every first occurrence of a line is a miss.
  std::set<std::string> seen;
  std::vector<text::Line> miss_lines;
  for (const std::string& record : sample) {
    text::SplitRecordInto(record, lines);
    for (const text::Line& line : lines) {
      if (seen.insert(LineKey(line)).second) miss_lines.push_back(line);
    }
  }
  CountingSink sink;
  text::TokenScratch scratch;
  size_t miss_bytes = 0;
  for (const text::Line& line : miss_lines) miss_bytes += line.text.size();
  std::vector<double> rates;
  for (int rep = 0; rep < 3 && miss_bytes > 0; ++rep) {
    const uint64_t start = NowNs();
    for (const text::Line& line : miss_lines) {
      tokenizer.ExtractTo(line, sink, scratch);
    }
    rates.push_back(static_cast<double>(miss_bytes) / (1024.0 * 1024.0) /
                    SecondsBetween(start, NowNs()));
  }

  const double n = std::max<double>(1.0, static_cast<double>(records));
  const double nl = std::max<double>(1.0, static_cast<double>(scored_lines));
  result.Set("text.split_us_per_record", split_us / n, "us");
  result.Set("text.tokenize_mib_per_s", Median(rates), "MiB/s");
  result.Set("crf.unary_us_per_line", unary_us / nl, "us");
  result.Set("crf.viterbi_us_per_record", viterbi_us / n, "us");
  result.Set("crf.logz_us_per_record", logz_us / n, "us");
  result.Set("whois.extract_us_per_record", extract_us / n, "us");
  result.Set("whois.json_us_per_record", json_us / n, "us");
  result.Set("whois.json_bytes_per_record",
             static_cast<double>(json_bytes) / n, "B");
  result.attempted += records;
  if (mismatched > 0) {
    result.failed += mismatched;
    result.Fail("replayed labels or JSON differ from Parse on " +
                std::to_string(mismatched) + " records");
  }
}

void MeasureRead(const std::string& data_dir, RunResult& result) {
  const std::string path = RecordsPath(data_dir);
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) {
    result.Fail("cannot stat " + path);
    return;
  }
  std::vector<double> rates;
  wh::StreamedRecord record;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t start = NowNs();
    whoiscrf::util::FileByteSource bytes(path);
    wh::RecordStreamReader reader(bytes);
    size_t n = 0;
    while (reader.Next(record)) ++n;
    const double seconds = SecondsBetween(start, NowNs());
    if (n == 0) result.Fail("no records in " + path);
    rates.push_back(static_cast<double>(st.st_size) / (1024.0 * 1024.0) /
                    seconds);
  }
  result.Set("whois.read_mib_per_s", Median(rates), "MiB/s");
}

}  // namespace perfbench
