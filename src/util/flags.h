// Tiny command-line flag parser for the CLI tools.
//
// Supports "--name value", "--name=value", and boolean "--name". Malformed
// and duplicate flags are collected as errors; UnconsumedFlags lists the
// rest a command never read. The CLI checks them against the command's
// help table before it runs, reading typed values there too, so unknown
// flags and malformed values fail fast. Non-flag arguments are positional.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace whoiscrf::util {

class FlagParser {
 public:
  // Parses argv[start..argc). Flags may appear in any order.
  FlagParser(int argc, const char* const* argv, int start = 1);

  // Typed accessors; consume the flag (so UnconsumedFlags can report
  // unknown/unused ones).
  std::string GetString(const std::string& name, std::string fallback = "");
  int64_t GetInt(const std::string& name, int64_t fallback = 0);
  double GetDouble(const std::string& name, double fallback = 0.0);
  bool GetBool(const std::string& name);  // presence (or =true/false)

  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags given on the command line but never consumed by the command.
  std::vector<std::string> UnconsumedFlags() const;

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, std::string> flags_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace whoiscrf::util
