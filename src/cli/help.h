// Per-command --help text for the whoiscrf CLI.
//
// One raw-string table, append-only: every flag a Cmd* implementation
// consumes must be listed here, and every flag listed here must be
// documented in README.md or docs/ — scripts/check_cli_docs.py parses this
// file (lint job) and the built binary's `--help` output (CTest) to keep
// the three in sync.
#pragma once

#include <string>
#include <vector>

namespace whoiscrf::cli {

// Help text for one subcommand, or nullptr if the command is unknown.
// Includes the shared global-flags trailer.
const char* CommandHelp(const std::string& command);

// The flags ("--name") a command accepts: every flag in its help table,
// global flags included. Empty for an unknown command.
std::vector<std::string> CommandFlags(const std::string& command);

// What a flag's value must parse as, read off the metavar in its help line:
// N, K, S, D and MS are integers; F, R, X and SIGMA are numbers; any other
// metavar (FILE, PREFIX, ...) or none is free text.
enum class FlagValue { kText, kInteger, kNumber };
FlagValue FlagValueType(const std::string& command, const std::string& flag);

}  // namespace whoiscrf::cli
