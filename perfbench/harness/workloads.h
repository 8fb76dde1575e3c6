// The benchmark's workloads and the layer replay they share.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::string data_dir;    // generated corpus (records.txt, truth.txt)
  std::string train_dir;   // generated fixed training set (labeled.txt)
  std::string work_dir;    // scratch space for stores; emptied per pass
  double seconds = 10.0;   // measured time
  bool trace = false;
  uint64_t seed = 1;
};


// Threads each workload runs at once, load generator included.
struct ThreadPlan {
  const char* workload;
  int threads;
  const char* detail;
};
const std::vector<ThreadPlan>& ThreadPlans();

// Corpus generation (never timed). `size` counts records.
void GenerateWorkloadCorpus(const std::string& workload, uint64_t seed,
                            size_t size, const std::string& out_dir);
void GenerateTrainingSet(size_t size, const std::string& out_dir);

// Set-up: trains the parser on the fixed training set twice per allowed
// CPU (at least 5 times) and sets setup_s to the median time, plus the crf.train_* per-layer metrics.
// Returns the last parser.
WhoisParser SetUp(const std::vector<LabeledRecord>& train, RunResult& result);

RunResult RunCensus(const RunConfig& config);
RunResult RunChurn(const RunConfig& config);

// The serve probe of the census traced run: serves `records` over loopback
// TCP through the parser cascade for about `seconds` and fills the
// cascade.*, serve.* and load-generator per-layer metrics. Every response
// must equal the offline cascade parse's JSON.
void RunServeProbe(const WhoisParser& parser,
                   const std::vector<LabeledRecord>& train,
                   const std::vector<std::string>& records,
                   const std::vector<KeyHashes>& truth, uint64_t seed,
                   double seconds, RunResult& result);

// The text / crf / whois split over `sample`: the cost of a compile-cache
// miss taken from Parse itself (cold against warm line cache), and a
// replay of the public stage calls for the rest (see layers.cc). Every
// replayed record must get Parse's labels and JSON; a mismatch fails the
// run.
void ReplayLayers(const WhoisParser& parser,
                  const std::vector<std::string>& sample, RunResult& result);

// Times RecordStreamReader over the corpus file (whois.read_mib_per_s).
void MeasureRead(const std::string& data_dir, RunResult& result);

}  // namespace perfbench
