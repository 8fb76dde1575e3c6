// Shared pieces of the benchmark harness: clocks and order statistics,
// the bench-side span tracer, corpus files, generator truth, training, and
// the result line every run prints.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "whois/record.h"
#include "whois/whois_parser.h"

namespace perfbench {

using whoiscrf::whois::LabeledRecord;
using whoiscrf::whois::ParsedWhois;
using whoiscrf::whois::WhoisParser;

// ---- Clocks and statistics ----------------------------------------------

uint64_t NowNs();  // steady clock
inline double SecondsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample. Sorts a copy.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Process peak resident set (getrusage ru_maxrss) in MiB.
double PeakRssMib();

// CPUs in the calling thread's affinity mask, ascending.
std::vector<int> AllowedCpus();
// Sets the calling thread's affinity mask to `cpus`.
void PinThread(const std::vector<int>& cpus);

// ---- Bench-side tracing -------------------------------------------------
//
// Spans are recorded only by the harness, around its calls into the
// program's public API. Each thread appends to its own buffer; buffers
// stay in memory until Summarize() at the end of the run. A span's parent
// is the span open on the same thread when it began; its self time is its
// duration minus the time its children cover.

enum class SpanName : uint8_t {
  kRecord,       // one unit of harness work (a churn record, a served request)
  kParse,        // WhoisParser::Parse
  kJson,         // whois::ToJson
  kFold,         // survey::RowFromParse + SurveyAccumulator::Add
  kCascade,      // cascade::CascadeParser::Parse inside the service
};

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;  // request / record id the span belongs to
  int32_t parent = -1;   // index in the same thread's buffer, -1 = root
  SpanName name = SpanName::kRecord;
  uint8_t tag = 0;       // e.g. the cascade tier that answered
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  // Returns a handle for End(), or -1 when tracing is off.
  static int Begin(SpanName name, uint64_t request);
  static void End(int handle, uint8_t tag = 0);

  struct Layer {
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> durations_us;  // per span, for percentiles
    std::map<uint8_t, std::vector<double>> by_tag;  // durations per tag
  };
  // Per-name totals over every thread's recorded spans.
  static std::map<SpanName, Layer> Summarize();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t request)
      : handle_(Tracer::Begin(name, request)) {}
  ~ScopedSpan() { Tracer::End(handle_, tag_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_tag(uint8_t tag) { tag_ = tag; }

 private:
  int handle_;
  uint8_t tag_ = 0;
};

// ---- Corpus files --------------------------------------------------------
//
// A generated corpus directory holds what the program reads and what the
// checks compare against:
//   records.txt  raw records separated by %% lines (the program's input)
//   truth.txt    per record, the generator-truth hash of each key field
//   labeled.txt  the records with gold labels (training set only)

inline constexpr size_t kKeyFields = 9;  // cascade::kNumKeyFields
using KeyHashes = std::array<uint64_t, kKeyFields>;

// One hash over all key fields (the per-record output digest).
uint64_t DigestKeyFields(const ParsedWhois& parsed);

// Writes records.txt and truth.txt; truth comes from each record's gold
// labels through the field extractor the parsers share.
void WriteCorpus(const std::string& dir,
                 const std::vector<LabeledRecord>& records);
std::vector<std::string> ReadRecords(const std::string& dir);
std::vector<KeyHashes> ReadTruth(const std::string& dir);
std::string RecordsPath(const std::string& dir);

// Agreeing key fields of `parsed` against generator truth.
size_t AgreeingKeyFields(const ParsedWhois& parsed, const KeyHashes& truth);

// ---- Results -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // failed checks, for the report
  // Extra report entries: key and a JSON value, printed before the result.
  std::vector<std::pair<std::string, std::string>> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

// Adds a `self_time_us` report entry: per span name, the span count, total
// duration and self time.
void NoteSelfTimes(const std::map<SpanName, Tracer::Layer>& layers,
                   RunResult& result);

// `[v1, v2, ...]` with each value rounded to one decimal.
std::string JsonList(const std::vector<double>& values);

// Prints `{"correct":...,"attempted":...,"failed":...,"metrics":{...}}`.
void PrintResult(const RunResult& result);

// Reads a counter / histogram sum of the global registry.
uint64_t CounterValue(const std::string& name);
double HistogramSum(const std::string& name);

}  // namespace perfbench
