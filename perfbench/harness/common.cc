#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "cascade/cascade.h"
#include "obs/metrics.h"
#include "text/line_splitter.h"
#include "whois/record_stream.h"

namespace perfbench {

namespace wh = whoiscrf::whois;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMib() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ---- Tracer ----------------------------------------------------------------

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // indices of the open spans, innermost last
};

std::atomic<bool> g_trace_enabled{false};
std::mutex g_trace_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_trace_buffers;  // g_trace_mu

// Buffers outlive their threads (the registry owns them), so spans of a
// finished pipeline pass stay readable until Summarize().
ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 16);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_trace_mu);
    g_trace_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRecord: return "record";
    case SpanName::kParse: return "parse";
    case SpanName::kJson: return "json";
    case SpanName::kFold: return "fold";
    case SpanName::kCascade: return "cascade";
  }
  return "?";
}

}  // namespace

void Tracer::SetEnabled(bool on) { g_trace_enabled.store(on); }
bool Tracer::enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

int Tracer::Begin(SpanName name, uint64_t request) {
  if (!enabled()) return -1;
  ThreadBuffer& buf = LocalBuffer();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = buf.open.empty() ? -1 : buf.open.back();
  const int handle = static_cast<int>(buf.spans.size());
  buf.open.push_back(handle);
  span.start_ns = NowNs();
  buf.spans.push_back(span);
  return handle;
}

void Tracer::End(int handle, uint8_t tag) {
  if (handle < 0) return;
  const uint64_t end = NowNs();
  ThreadBuffer& buf = LocalBuffer();
  Span& span = buf.spans[static_cast<size_t>(handle)];
  span.end_ns = end;
  span.tag = tag;
  buf.open.pop_back();
}

std::map<SpanName, Tracer::Layer> Tracer::Summarize() {
  std::map<SpanName, Layer> out;
  std::lock_guard<std::mutex> lock(g_trace_mu);
  for (const auto& buf : g_trace_buffers) {
    const std::vector<Span>& spans = buf->spans;
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_us[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;  // still open
      const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      Layer& layer = out[s.name];
      ++layer.count;
      layer.total_us += us;
      layer.self_us += us - child_us[i];
      layer.durations_us.push_back(us);
      layer.by_tag[s.tag].push_back(us);
    }
  }
  return out;
}

// ---- Corpus files ----------------------------------------------------------

namespace {

uint64_t Fnv1a(std::string_view bytes,
               uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

KeyHashes HashKeyFields(const ParsedWhois& parsed) {
  const auto values = whoiscrf::cascade::KeyFieldValues(parsed);
  KeyHashes out{};
  for (size_t i = 0; i < kKeyFields && i < values.size(); ++i) {
    out[i] = Fnv1a(values[i]);
  }
  return out;
}

ParsedWhois GoldParse(const LabeledRecord& record) {
  const auto lines = whoiscrf::text::SplitRecord(record.text);
  std::vector<wh::Level2Label> subs;
  for (size_t i = 0; i < record.labels.size(); ++i) {
    if (record.labels[i] == wh::Level1Label::kRegistrant) {
      subs.push_back(record.sub_labels[i].value_or(wh::Level2Label::kOther));
    }
  }
  ParsedWhois gold;
  gold.line_labels = record.labels;
  wh::ExtractFields(lines, record.labels, subs, gold);
  return gold;
}

}  // namespace

uint64_t DigestKeyFields(const ParsedWhois& parsed) {
  uint64_t h = 1469598103934665603ULL;
  for (std::string_view v : whoiscrf::cascade::KeyFieldValues(parsed)) {
    h = Fnv1a(v, h);
    h = Fnv1a(std::string_view("\x1f", 1), h);
  }
  return h;
}

std::string RecordsPath(const std::string& dir) { return dir + "/records.txt"; }

void WriteCorpus(const std::string& dir,
                 const std::vector<LabeledRecord>& records) {
  std::ofstream raw(RecordsPath(dir), std::ios::binary);
  std::ofstream truth(dir + "/truth.txt", std::ios::binary);
  for (const LabeledRecord& record : records) {
    raw << record.text;
    if (!record.text.empty() && record.text.back() != '\n') raw << '\n';
    raw << "%%\n";
    const KeyHashes h = HashKeyFields(GoldParse(record));
    for (size_t i = 0; i < kKeyFields; ++i) {
      truth << (i ? " " : "") << std::hex << h[i];
    }
    truth << '\n';
  }
  if (!raw || !truth) throw std::runtime_error("cannot write corpus in " + dir);
}

std::vector<std::string> ReadRecords(const std::string& dir) {
  return wh::ReadAllRecords(RecordsPath(dir));
}

std::vector<KeyHashes> ReadTruth(const std::string& dir) {
  std::ifstream in(dir + "/truth.txt");
  if (!in) throw std::runtime_error("no truth.txt in " + dir);
  std::vector<KeyHashes> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    KeyHashes h{};
    for (size_t i = 0; i < kKeyFields; ++i) fields >> std::hex >> h[i];
    if (!fields) throw std::runtime_error("malformed truth line in " + dir);
    out.push_back(h);
  }
  return out;
}

size_t AgreeingKeyFields(const ParsedWhois& parsed, const KeyHashes& truth) {
  const KeyHashes h = HashKeyFields(parsed);
  size_t agree = 0;
  for (size_t i = 0; i < kKeyFields; ++i) agree += h[i] == truth[i] ? 1 : 0;
  return agree;
}

// ---- Results ---------------------------------------------------------------

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

void NoteSelfTimes(const std::map<SpanName, Tracer::Layer>& layers,
                   RunResult& result) {
  std::string json = "{";
  for (const auto& [name, layer] : layers) {
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"count\": %llu, \"total_us\": %.1f, "
                  "\"self_us\": %.1f}",
                  json.size() > 1 ? ", " : "", SpanNameString(name),
                  static_cast<unsigned long long>(layer.count), layer.total_us,
                  layer.self_us);
    json += entry;
  }
  result.notes.emplace_back("self_time_us", json + "}");
}

void PrintResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

uint64_t CounterValue(const std::string& name) {
  return whoiscrf::obs::Registry::Global().CounterValue(name);
}

double HistogramSum(const std::string& name) {
  return whoiscrf::obs::Registry::Global()
      .GetHistogram(name, "", {1.0})
      ->Sum();
}

}  // namespace perfbench
