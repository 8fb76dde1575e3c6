// Input generation, which is never timed, and the training call whose
// time is set-up time.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "datagen/corpus_gen.h"
#include "datagen/template_library.h"
#include "datagen/temporal.h"
#include "util/random.h"
#include "whois/training_data.h"
#include "workloads.h"

namespace perfbench {

namespace dg = whoiscrf::datagen;
namespace wh = whoiscrf::whois;

namespace {

// The training set is the same for every seed, so setup_s compares like
// with like across runs.
constexpr uint64_t kTrainSeed = 20151028;

// Survey-grade options (DBL and brand boosts on), as the §6 tables use.
dg::CorpusOptions SurveyOptions(uint64_t seed, size_t size) {
  dg::CorpusOptions o;
  o.size = size;
  o.seed = seed;
  o.drift_fraction = 0.25;
  o.dbl_boost = 40.0;
  o.brand_boost = 5.0;
  return o;
}

dg::CorpusOptions EvalOptions(uint64_t seed, size_t size) {
  dg::CorpusOptions o;
  o.size = size;
  o.seed = seed;
  o.drift_fraction = 0.25;
  return o;
}

// Format churn: mostly drifted and grimy registrar records, a share of
// new-TLD registry formats, and records from a time-ordered corpus whose
// schemas mutate at evenly spaced events.
std::vector<LabeledRecord> ChurnRecords(uint64_t seed, size_t size) {
  dg::CorpusOptions o = EvalOptions(seed, size);
  o.drift_fraction = 0.9;
  o.noise_fraction = 0.6;
  const dg::CorpusGenerator drifted(o);

  dg::TemporalCorpusOptions t;
  t.size = size;
  t.seed = seed ^ 0x5eedULL;
  t.events = 8;
  t.families_per_event = 4;
  t.new_registrar_share = 0.3;
  const dg::TemporalCorpusGenerator temporal(t);

  const std::vector<std::string> tlds = dg::TemplateLibrary::NewTldNames();
  whoiscrf::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<LabeledRecord> out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const double r = rng.UniformDouble();
    if (r < 0.2) {
      const std::string& tld = tlds[rng.NextU64() % tlds.size()];
      out.push_back(drifted.GenerateNewTld(tld, i).thick);
    } else if (r < 0.5) {
      out.push_back(temporal.Generate(i).thick);
    } else {
      out.push_back(drifted.Generate(i).thick);
    }
  }
  return out;
}

// The benchmark's trainer settings. Single-threaded, so set-up time does
// not depend on the core count.
WhoisParser TrainParser(const std::vector<LabeledRecord>& train) {
  wh::WhoisParserOptions options;
  options.trainer.l2_sigma = 10.0;
  options.trainer.lbfgs.max_iterations = 100;
  options.trainer.threads = 1;
  return WhoisParser::Train(train, options);
}

std::vector<LabeledRecord> TakeRecords(const dg::CorpusGenerator& generator,
                                       size_t size) {
  std::vector<LabeledRecord> out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) out.push_back(generator.Generate(i).thick);
  return out;
}

}  // namespace

const std::vector<ThreadPlan>& ThreadPlans() {
  static const std::vector<ThreadPlan> plans = {
      {"census", 4,
       "1 reader + 2 parse workers + 1 sink (caller); traced serve probe: "
       "1 load generator + 1 event loop + 2 parse workers"},
      {"churn", 1, "1 parse thread"},
  };
  return plans;
}

void GenerateWorkloadCorpus(const std::string& workload, uint64_t seed,
                            size_t size, const std::string& out_dir) {
  std::vector<LabeledRecord> records;
  if (workload == "census") {
    records = TakeRecords(dg::CorpusGenerator(SurveyOptions(seed, size)), size);
  } else if (workload == "churn") {
    records = ChurnRecords(seed, size);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  std::filesystem::create_directories(out_dir);
  WriteCorpus(out_dir, records);
}

void GenerateTrainingSet(size_t size, const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  const std::vector<LabeledRecord> records =
      TakeRecords(dg::CorpusGenerator(EvalOptions(kTrainSeed, size)), size);
  WriteCorpus(out_dir, records);
  wh::WriteLabeledRecordsFile(out_dir + "/labeled.txt", records);
}

WhoisParser SetUp(const std::vector<LabeledRecord>& train, RunResult& result) {
  // Two trainings per CPU, taking turns on each allowed CPU, as churn's
  // passes do.
  const std::vector<int> cpus = AllowedCpus();
  const size_t reps = std::max<size_t>(5, 2 * cpus.size());
  std::vector<double> seconds;
  std::optional<WhoisParser> parser;
  for (size_t rep = 0; rep < reps; ++rep) {
    parser.reset();
    if (!cpus.empty()) PinThread({cpus[rep % cpus.size()]});
    // The trainer registers its iteration histogram on first use; reading
    // it earlier would register it here, with other buckets.
    const uint64_t evals0 =
        CounterValue("whoiscrf_train_objective_evals_total");
    const double iter_s0 =
        rep > 0 ? HistogramSum("whoiscrf_train_iteration_seconds") : 0.0;
    const uint64_t start = NowNs();
    parser.emplace(TrainParser(train));
    seconds.push_back(SecondsBetween(start, NowNs()));
    const uint64_t evals =
        CounterValue("whoiscrf_train_objective_evals_total") - evals0;
    const double iter_s =
        HistogramSum("whoiscrf_train_iteration_seconds") - iter_s0;
    result.Set("crf.train_evals", static_cast<double>(evals), "count");
    result.Set("crf.train_eval_ms",
               evals > 0 ? iter_s * 1e3 / static_cast<double>(evals) : 0.0,
               "ms");
  }
  PinThread(cpus);
  result.Set("setup_s", Median(seconds), "s");
  return std::move(*parser);
}

}  // namespace perfbench
