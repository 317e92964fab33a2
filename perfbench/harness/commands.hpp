#pragma once
//
// Harness subcommands. Each prints one JSON report line on stdout; run.py
// orchestrates them (see perfbench/README.md).
//
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` options; a bare `--flag` maps to "1".
struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key) const;  // throws if missing
  double num(const std::string& key, double fallback) const;
  std::vector<std::string> list(const std::string& key) const;  // comma-split
};

int cmd_gen(const Args& args);
int cmd_build(const Args& args);
int cmd_check(const Args& args);
int cmd_serve(const Args& args);
int cmd_selftest(const Args& args);

}  // namespace perfbench
