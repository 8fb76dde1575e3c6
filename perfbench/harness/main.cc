// perfbench_harness: generates the benchmark's inputs and runs one
// workload. perfbench/run.py drives it; see perfbench/README.md.
//
//   perfbench_harness gen --workload W --seed N --size S --out DIR
//   perfbench_harness gen-train --size S --out DIR
//   perfbench_harness run --workload W --seed N --data DIR --train DIR
//                         --work DIR --seconds T --trace 0|1
//                         --metrics NAME=UNIT,...
//
// `run` prints a report line, then the result line: one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. It exits 1 when a check
// failed and 2 on a usage or set-up error (without a result line).

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const ThreadPlan* FindPlan(const std::string& workload) {
  for (const ThreadPlan& plan : ThreadPlans()) {
    if (workload == plan.workload) return &plan;
  }
  return nullptr;
}

// Parses `name=unit,name=unit,...`: the metrics this mode must print, as
// BENCHMARK.json lists them.
std::vector<std::pair<std::string, std::string>> ParseMetricList(
    const std::string& list) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(pos, end - pos);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      throw std::invalid_argument("malformed --metrics entry: " + item);
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    pos = end + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty --metrics");
  return out;
}

// Keeps exactly the `wanted` metrics. A per-layer metric the workload does
// not exercise reads 0 and is named in the report; a missing end-to-end
// metric, a unit other than the declared one or a non-finite value fails
// the run.
void SelectMetrics(bool trace,
                   const std::vector<std::pair<std::string, std::string>>&
                       wanted,
                   RunResult& result) {
  std::map<std::string, Metric> kept;
  std::string unmeasured;
  for (const auto& [name, unit] : wanted) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      if (trace) {
        unmeasured += (unmeasured.empty() ? "\"" : ", \"") + name + "\"";
      } else {
        result.Fail("metric " + name + " was not measured");
      }
      kept[name] = Metric{0.0, unit};
      continue;
    }
    if (it->second.unit != unit) {
      result.Fail("metric " + name + " is measured in " + it->second.unit +
                  ", not " + unit);
    }
    if (!std::isfinite(it->second.value)) {
      result.Fail("metric " + name + " is not finite");
    }
    kept[name] = Metric{it->second.value, unit};
  }
  if (trace) result.notes.emplace_back("unmeasured", "[" + unmeasured + "]");
  result.metrics = std::move(kept);
}

int Run(const std::map<std::string, std::string>& args) {
  RunConfig config;
  config.workload = args.at("workload");
  config.seed = std::stoull(args.at("seed"));
  config.data_dir = args.at("data");
  config.train_dir = args.at("train");
  config.work_dir = args.at("work");
  config.seconds = std::stod(args.at("seconds"));
  config.trace = args.at("trace") == "1";
  const auto wanted = ParseMetricList(args.at("metrics"));

  const ThreadPlan* plan = FindPlan(config.workload);
  if (plan == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(AllowedCpus().size());
  if (plan->threads > nproc) {
    std::fprintf(stderr,
                 "refusing to run %s: its plan needs %d threads (%s) but "
                 "nproc is %d\n",
                 plan->workload, plan->threads, plan->detail, nproc);
    return 2;
  }

  RunResult result;
  if (config.workload == "census") {
    result = RunCensus(config);
  } else {
    result = RunChurn(config);
  }
  if (!config.trace) {
    result.Set("success_share",
               result.attempted > 0
                   ? static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               "ratio");
  }
  if (result.attempted == 0) result.Fail("no operations attempted");
  SelectMetrics(config.trace, wanted, result);

  std::string report = "{\"report\": {\"workload\": " +
                       JsonString(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"trace\": " + (config.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(nproc) +
                       ", \"thread_plan\": {\"threads\": " +
                       std::to_string(plan->threads) +
                       ", \"detail\": " + JsonString(plan->detail) + "}";
  for (const auto& [key, value] : result.notes) {
    report += ", " + JsonString(key) + ": " + value;
  }
  report += ", \"problems\": [";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    report += (i ? ", " : "") + JsonString(result.problems[i]);
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());
  PrintResult(result);
  return result.correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|gen-train|run ...\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (command == "gen") {
      GenerateWorkloadCorpus(args.at("workload"), std::stoull(args.at("seed")),
                             std::stoull(args.at("size")), args.at("out"));
      return 0;
    }
    if (command == "gen-train") {
      GenerateTrainingSet(std::stoull(args.at("size")), args.at("out"));
      return 0;
    }
    if (command == "run") return Run(args);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "%s: missing argument\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", command.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
