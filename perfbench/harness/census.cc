// census: the §6 survey pipeline. A survey-grade corpus file is read by
// whois::RecordStreamReader and fed to whois::ParseStreamToStore (2 pure-CRF
// workers, a sharded store with checkpoints); the sink folds every row into
// a survey::SurveyAccumulator. Each pass runs the whole corpus from a fresh
// store; the run repeats passes until its time is up. The traced run then
// serves the same corpus through the serve probe (serve.cc).

#include <filesystem>

#include "datagen/registrar_profiles.h"
#include "survey/accumulator.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "util/chunk_reader.h"
#include "whois/record_stream.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"
#include "whois/training_data.h"
#include "workloads.h"

namespace perfbench {

namespace wh = whoiscrf::whois;
namespace survey = whoiscrf::survey;
namespace fs = std::filesystem;

namespace {

constexpr size_t kWorkers = 2;
constexpr uint64_t kCheckpointInterval = 4096;
constexpr uint64_t kRecordsPerShard = 4096;
// The traced run's serve probe lasts this share of the measured time.
constexpr double kServeProbeShare = 0.3;

struct Pass {
  double seconds = 0.0;
  wh::CheckpointedParseResult run;
  std::vector<uint64_t> digests;  // key-field digest per record
  std::string survey;             // SurveyAccumulator::Serialize()
  double store_mib = 0.0;
};

double DirectoryMib(const fs::path& dir) {
  uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Pass RunPass(const WhoisParser& parser,
             const survey::SurveyNormalizer& normalizer,
             const RunConfig& config, size_t records, bool traced) {
  const fs::path dir = fs::path(config.work_dir) / "census-store";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Pass pass;
  pass.digests.assign(records, 0);
  survey::SurveyAccumulator acc;

  wh::CheckpointedParseOptions options;
  options.pipeline.threads = kWorkers;
  options.pipeline.batch_records = 64;
  options.pipeline.queue_capacity = 8;
  options.store.records_per_shard = kRecordsPerShard;
  options.checkpoint_interval = kCheckpointInterval;
  options.input_id = "perfbench:census";
  options.save_aux = [&acc] { return acc.Serialize(); };
  if (traced) {
    options.pipeline.parse_override = [&parser](const std::string& record,
                                                wh::ParseWorkspace& ws) {
      ScopedSpan span(SpanName::kParse, 0);
      return parser.Parse(record, ws);
    };
  }

  whoiscrf::util::FileByteSource bytes(RecordsPath(config.data_dir));
  wh::TextRecordSource source(bytes);
  const uint64_t start = NowNs();
  pass.run = wh::ParseStreamToStore(
      parser, source, (dir / "store").string(), options,
      [&](uint64_t index, const std::string&, const ParsedWhois& parsed) {
        {
          ScopedSpan fold(SpanName::kFold, index);
          acc.Add(survey::RowFromParse(parsed.domain_name, parsed, normalizer,
                                       /*on_dbl=*/false));
        }
        if (index < records) pass.digests[index] = DigestKeyFields(parsed);
      });
  pass.seconds = SecondsBetween(start, NowNs());
  pass.survey = acc.Serialize();
  pass.store_mib = DirectoryMib(dir);
  return pass;
}

// Single-worker reference over the same corpus: the survey state and the
// per-record digests every timed pass must reproduce, plus key-field
// accuracy against generator truth.
struct Reference {
  std::string survey;
  std::vector<uint64_t> digests;
  uint64_t agree = 0;
  uint64_t fields = 0;
};

Reference RunReference(const WhoisParser& parser,
                       const survey::SurveyNormalizer& normalizer,
                       const RunConfig& config,
                       const std::vector<KeyHashes>& truth) {
  Reference ref;
  survey::SurveyAccumulator acc;
  whoiscrf::util::FileByteSource bytes(RecordsPath(config.data_dir));
  wh::TextRecordSource source(bytes);
  wh::StreamPipelineOptions options;
  options.threads = 1;
  wh::ParseStream(parser, source, options,
                  [&](uint64_t index, const std::string&,
                      const ParsedWhois& parsed) {
                    acc.Add(survey::RowFromParse(parsed.domain_name, parsed,
                                                 normalizer, false));
                    ref.digests.push_back(DigestKeyFields(parsed));
                    if (index < truth.size()) {
                      ref.agree += AgreeingKeyFields(parsed, truth[index]);
                      ref.fields += kKeyFields;
                    }
                  });
  ref.survey = acc.Serialize();
  return ref;
}

}  // namespace

RunResult RunCensus(const RunConfig& config) {
  RunResult result;
  const auto train =
      wh::ReadLabeledRecordsFile(config.train_dir + "/labeled.txt");
  const std::vector<KeyHashes> truth = ReadTruth(config.data_dir);
  const size_t records = truth.size();

  const WhoisParser parser = SetUp(train, result);

  const whoiscrf::datagen::RegistrarTable registrars;
  const survey::SurveyNormalizer normalizer(registrars);
  const Reference ref = RunReference(parser, normalizer, config, truth);
  if (ref.digests.size() != records) {
    result.Fail("reference run parsed " + std::to_string(ref.digests.size()) +
                " of " + std::to_string(records) + " records");
  }

  std::vector<double> rates, untraced_s, traced_s;
  std::vector<double> reader_stall, worker_stall, sink_stall, ckpt_s, ckpts,
      store_mib;
  uint64_t hits = 0, misses = 0;
  const size_t min_passes = config.trace ? 4 : 3;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const bool traced = config.trace && i % 2 == 1;
    const uint64_t hits0 = CounterValue("whoiscrf_compile_cache_hits_total");
    const uint64_t misses0 =
        CounterValue("whoiscrf_compile_cache_misses_total");
    Tracer::SetEnabled(traced);
    const Pass pass = RunPass(parser, normalizer, config, records, traced);
    Tracer::SetEnabled(false);

    // Checks, outside the timed pass.
    result.attempted += records;
    uint64_t mismatched = 0;
    for (size_t r = 0; r < records && r < ref.digests.size(); ++r) {
      if (pass.digests[r] != ref.digests[r]) ++mismatched;
    }
    uint64_t bad = mismatched + pass.run.quarantined;
    if (mismatched > 0) {
      result.Fail("key fields differ from the reference on " +
                  std::to_string(mismatched) + " records");
    }
    if (pass.run.quarantined > 0) {
      result.Fail(std::to_string(pass.run.quarantined) +
                  " records quarantined");
    }
    if (pass.run.stats.records + pass.run.quarantined != records) {
      result.Fail("pass stored " + std::to_string(pass.run.stats.records) +
                  " of " + std::to_string(records) + " records");
      bad = std::max<uint64_t>(bad, 1);
    }
    if (pass.survey != ref.survey) {
      result.Fail("survey state differs from the single-worker reference");
      bad = std::max<uint64_t>(bad, 1);
    }
    result.failed += std::min<uint64_t>(bad, records);

    (traced ? traced_s : untraced_s).push_back(pass.seconds);
    if (traced) {
      hits += CounterValue("whoiscrf_compile_cache_hits_total") - hits0;
      misses += CounterValue("whoiscrf_compile_cache_misses_total") - misses0;
      reader_stall.push_back(pass.run.stats.reader_stall_seconds);
      worker_stall.push_back(pass.run.stats.worker_stall_seconds);
      sink_stall.push_back(pass.run.stats.sink_stall_seconds);
      ckpt_s.push_back(pass.run.checkpoint_seconds);
      ckpts.push_back(static_cast<double>(pass.run.checkpoints));
      store_mib.push_back(pass.store_mib);
    } else {
      rates.push_back(static_cast<double>(records) / pass.seconds);
    }
    if (i + 1 >= min_passes && NowNs() >= deadline) break;
  }
  fs::remove_all(fs::path(config.work_dir) / "census-store");

  result.notes.emplace_back("pass_records_per_s", JsonList(rates));
  if (!config.trace) {
    result.Set("records_per_s", Median(rates), "1/s");
    result.Set("peak_rss_mib", PeakRssMib(), "MiB");
    result.Set("field_accuracy",
               ref.fields ? static_cast<double>(ref.agree) /
                                static_cast<double>(ref.fields)
                          : 0.0,
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
  if (const auto it = layers.find(SpanName::kFold); it != layers.end()) {
    result.Set("survey.fold_us_per_record",
               it->second.self_us /
                   static_cast<double>(std::max<uint64_t>(1, it->second.count)),
               "us");
  }
  result.Set("survey.state_bytes", static_cast<double>(ref.survey.size()), "B");
  result.Set("whois.line_cache_hit_ratio",
             hits + misses ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
             "ratio");
  result.Set("stream.reader_stall_s", Median(reader_stall), "s");
  result.Set("stream.worker_stall_s", Median(worker_stall), "s");
  result.Set("stream.sink_stall_s", Median(sink_stall), "s");
  result.Set("stream.checkpoint_s", Median(ckpt_s), "s");
  result.Set("stream.checkpoints", Median(ckpts), "count");
  result.Set("stream.store_mib", Median(store_mib), "MiB");
  result.Set("harness.trace_overhead",
             Median(traced_s) / Median(untraced_s) - 1.0, "ratio");

  std::vector<std::string> all = ReadRecords(config.data_dir);
  RunServeProbe(parser, train, all, truth, config.seed,
                kServeProbeShare * config.seconds, result);
  all.resize(std::min<size_t>(all.size(), 2000));
  ReplayLayers(parser, all, result);
  MeasureRead(config.data_dir, result);
  return result;
}

}  // namespace perfbench
