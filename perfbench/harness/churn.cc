// churn: `parse --format json` on one thread — WhoisParser::Parse with one
// ParseWorkspace that lives for the whole pass, then whois::ToJson into a
// buffered output. The corpus churns formats (heavy drift and grime, new-TLD
// registries, temporal schema events). Each pass starts a fresh workspace,
// like a new process would.


#include "whois/json_export.h"
#include "whois/training_data.h"
#include "workloads.h"

namespace perfbench {

namespace wh = whoiscrf::whois;

namespace {

// Every kSampleStride-th record's JSON is kept and checked.
constexpr size_t kSampleStride = 50;
constexpr size_t kOutputBuffer = size_t{1} << 20;

struct Pass {
  double seconds = 0.0;
  std::vector<std::string> sample_json;
  uint64_t json_bytes = 0;
};

Pass RunPass(const WhoisParser& parser,
             const std::vector<std::string>& records) {
  Pass pass;
  pass.sample_json.reserve(records.size() / kSampleStride + 1);
  wh::ParseWorkspace ws;
  std::string out;
  out.reserve(kOutputBuffer + (64 << 10));
  const uint64_t start = NowNs();
  for (size_t r = 0; r < records.size(); ++r) {
    ScopedSpan record_span(SpanName::kRecord, r);
    std::optional<ParsedWhois> parsed;
    {
      ScopedSpan span(SpanName::kParse, r);
      parsed.emplace(parser.Parse(records[r], ws));
    }
    std::string json;
    {
      ScopedSpan span(SpanName::kJson, r);
      json = wh::ToJson(*parsed);
    }
    pass.json_bytes += json.size();
    out.append(json);
    out.push_back('\n');
    if (out.size() >= kOutputBuffer) out.clear();
    if (r % kSampleStride == 0) pass.sample_json.push_back(std::move(json));
  }
  pass.seconds = SecondsBetween(start, NowNs());
  return pass;
}

}  // namespace

RunResult RunChurn(const RunConfig& config) {
  RunResult result;
  const auto train =
      wh::ReadLabeledRecordsFile(config.train_dir + "/labeled.txt");
  const std::vector<std::string> records = ReadRecords(config.data_dir);
  const std::vector<KeyHashes> truth = ReadTruth(config.data_dir);
  if (records.size() != truth.size() || records.empty()) {
    result.Fail("corpus has " + std::to_string(records.size()) +
                " records but " + std::to_string(truth.size()) +
                " truth rows");
    return result;
  }

  const WhoisParser parser = SetUp(train, result);

  // Reference pass (untimed): key-field accuracy, the JSON every timed pass
  // must reproduce, and the differential check against ParseNaive.
  uint64_t agree = 0;
  uint64_t ref_bytes = 0;
  std::vector<std::string> ref_sample;
  {
    wh::ParseWorkspace ws;
    for (size_t r = 0; r < records.size(); ++r) {
      const ParsedWhois parsed = parser.Parse(records[r], ws);
      agree += AgreeingKeyFields(parsed, truth[r]);
      std::string json = wh::ToJson(parsed);
      ref_bytes += json.size();
      if (r % kSampleStride == 0) ref_sample.push_back(std::move(json));
    }
  }
  uint64_t naive_mismatch = 0;
  for (size_t s = 0; s < ref_sample.size(); ++s) {
    const std::string naive =
        wh::ToJson(parser.ParseNaive(records[s * kSampleStride]));
    if (naive != ref_sample[s]) ++naive_mismatch;
  }
  result.attempted += ref_sample.size();
  if (naive_mismatch > 0) {
    result.failed += naive_mismatch;
    result.Fail("Parse JSON differs from ParseNaive on " +
                std::to_string(naive_mismatch) + " sampled records");
  }

  // The CPUs of a shared virtual machine run at speeds that differ and
  // drift over tens of seconds, so the passes take turns on every allowed
  // CPU (an untraced pass and its traced twin on the same one); one slow
  // CPU then does not decide a run.
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> rates, untraced_s, traced_s;
  uint64_t hits = 0, misses = 0;
  const size_t min_passes = config.trace ? 4 : 3;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const bool traced = config.trace && i % 2 == 1;
    if (!cpus.empty()) {
      PinThread({cpus[(config.trace ? i / 2 : i) % cpus.size()]});
    }
    const uint64_t hits0 = CounterValue("whoiscrf_compile_cache_hits_total");
    const uint64_t misses0 =
        CounterValue("whoiscrf_compile_cache_misses_total");
    Tracer::SetEnabled(traced);
    const Pass pass = RunPass(parser, records);
    Tracer::SetEnabled(false);

    result.attempted += records.size();
    uint64_t bad = 0;
    for (size_t s = 0; s < ref_sample.size(); ++s) {
      if (pass.sample_json[s] != ref_sample[s]) ++bad;
    }
    if (pass.json_bytes != ref_bytes) bad = std::max<uint64_t>(bad, 1);
    if (bad > 0) {
      result.failed += bad;
      result.Fail("pass JSON differs from the reference pass");
    }

    (traced ? traced_s : untraced_s).push_back(pass.seconds);
    if (traced) {
      hits += CounterValue("whoiscrf_compile_cache_hits_total") - hits0;
      misses += CounterValue("whoiscrf_compile_cache_misses_total") - misses0;
    } else {
      rates.push_back(static_cast<double>(records.size()) / pass.seconds);
    }
    if (i + 1 >= min_passes && NowNs() >= deadline) break;
  }
  PinThread(cpus);

  result.notes.emplace_back("pass_records_per_s", JsonList(rates));
  if (!config.trace) {
    result.Set("records_per_s", Median(rates), "1/s");
    result.Set("peak_rss_mib", PeakRssMib(), "MiB");
    result.Set("field_accuracy",
               static_cast<double>(agree) /
                   static_cast<double>(records.size() * kKeyFields),
               "ratio");
    return result;
  }

  const auto layers = Tracer::Summarize();
  NoteSelfTimes(layers, result);
  if (const auto it = layers.find(SpanName::kParse); it != layers.end()) {
    result.Set("whois.parse_us_p50", Percentile(it->second.durations_us, 0.50),
               "us");
    result.Set("whois.parse_us_p99", Percentile(it->second.durations_us, 0.99),
               "us");
  }
  result.Set("whois.line_cache_hit_ratio",
             hits + misses ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
             "ratio");
  result.Set("harness.trace_overhead",
             Median(traced_s) / Median(untraced_s) - 1.0, "ratio");

  std::vector<std::string> sample(
      records.begin(),
      records.begin() + static_cast<std::ptrdiff_t>(
                            std::min<size_t>(records.size(), 2000)));
  ReplayLayers(parser, sample, result);
  MeasureRead(config.data_dir, result);
  return result;
}

}  // namespace perfbench
