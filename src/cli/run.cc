// Shared subcommand runner: dispatches to the Cmd* implementations and
// owns the observability flags every subcommand accepts.
//
//   --metrics-out=PATH  write the metrics registry when the command ends
//                       (.prom/.txt → Prometheus text, .jsonl → append one
//                       run-report line, else a JSON run report)
//   --trace-out=PATH    enable trace spans and write Chrome trace JSON
//
// Keeping this in one place means a new subcommand gets telemetry for free
// and no command can drift from the contract in docs/observability.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "cli/commands.h"
#include "cli/help.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace whoiscrf::cli {

namespace {

// Trace events store the name pointer, so span names must be literals with
// process lifetime — hence this lookup instead of ("cli." + command).
const char* CommandSpanName(const std::string& command) {
  if (command == "gen") return "cli.gen";
  if (command == "train") return "cli.train";
  if (command == "parse") return "cli.parse";
  if (command == "adapt") return "cli.adapt";
  if (command == "eval") return "cli.eval";
  if (command == "select") return "cli.select";
  if (command == "crawl") return "cli.crawl";
  if (command == "serve") return "cli.serve";
  if (command == "shard-router") return "cli.shard_router";
  if (command == "retrain-loop") return "cli.retrain_loop";
  if (command == "scale-run") return "cli.scale_run";
  if (command == "quarantine") return "cli.quarantine";
  return "cli.command";
}

int Dispatch(const std::string& command, util::FlagParser& flags) {
  if (command == "gen") return CmdGen(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "parse") return CmdParse(flags);
  if (command == "adapt") return CmdAdapt(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "select") return CmdSelect(flags);
  if (command == "crawl") return CmdCrawl(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "shard-router") return CmdShardRouter(flags);
  if (command == "retrain-loop") return CmdRetrainLoop(flags);
  if (command == "scale-run") return CmdScaleRun(flags);
  if (command == "quarantine") return CmdQuarantine(flags);
  return -1;  // unreachable: RunCommand checks Known() first
}

bool Known(const std::string& command) {
  return command == "gen" || command == "train" || command == "parse" ||
         command == "adapt" || command == "eval" || command == "select" ||
         command == "crawl" || command == "serve" ||
         command == "shard-router" || command == "retrain-loop" ||
         command == "scale-run" || command == "quarantine";
}

}  // namespace

std::optional<int> RunCommand(const std::string& command,
                              util::FlagParser& flags) {
  if (!Known(command)) return std::nullopt;

  // `whoiscrf <cmd> --help` prints the flag table and exits before any
  // other flag is validated (so help works without --model etc.).
  if (flags.GetBool("help")) {
    std::fputs(CommandHelp(command), stdout);
    return 0;
  }

  // Fail fast, before the command does any work, on a flag the command
  // does not take or a value that does not parse as the flag's type: a
  // misspelt flag or a malformed value would otherwise run with defaults.
  // Typed reads record malformed values in flags.errors(), which the caller
  // prints.
  const std::vector<std::string> accepted = CommandFlags(command);
  bool unknown = false;
  for (const std::string& flag : flags.UnconsumedFlags()) {
    if (std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      std::fprintf(stderr, "error: unknown flag %s for '%s'\n", flag.c_str(),
                   command.c_str());
      unknown = true;
      continue;
    }
    switch (FlagValueType(command, flag)) {
      case FlagValue::kInteger: flags.GetInt(flag.substr(2)); break;
      case FlagValue::kNumber: flags.GetDouble(flag.substr(2)); break;
      case FlagValue::kText: break;
    }
  }
  if (unknown || !flags.errors().empty()) return 2;

  // Consume the telemetry flags before dispatch so commands never see them
  // as unknown/unused.
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  const auto start = std::chrono::steady_clock::now();
  int code;
  {
    obs::ScopedSpan span(CommandSpanName(command));
    code = Dispatch(command, flags);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!metrics_out.empty()) {
    obs::RunInfo info;
    info.command = command;
    info.exit_code = code;
    info.wall_seconds = wall_seconds;
    obs::WriteMetricsFile(metrics_out, obs::Registry::Global(), info);
  }
  if (!trace_out.empty()) {
    obs::Tracer::Global().WriteFile(trace_out);
  }
  return code;
}

}  // namespace whoiscrf::cli
