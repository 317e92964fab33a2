// Cost of certainty: what the audit battery itself costs, per family and
// per auditor group, so CI budgets (and the campaign's --budget-s) can be
// set from data. Reports checks/second for the full battery on mid-sized
// instances plus one end-to-end campaign sweep at defaults.
#include <chrono>
#include <cstdio>

#include "audit/audit.hpp"
#include "audit/campaign.hpp"
#include "bench_util.hpp"

using namespace compactroute;
using bench::write_bench_json;

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::printf("audit battery cost (full stack build + every auditor)\n\n");
  std::printf("%-14s %6s %10s %10s %12s %12s\n", "family", "n", "build-ms",
              "audit-ms", "checks", "checks/s");

  obs::JsonValue doc = obs::JsonValue::object();
  doc["benchmark"] = "audit";
  doc["families"] = obs::JsonValue::array();

  for (const std::string& family : audit::campaign_families()) {
    const Graph graph = audit::make_campaign_instance(family, 256, 1);
    const auto build_start = std::chrono::steady_clock::now();
    const SnapshotStack stack = build_stack(graph, 0.5);
    const double build_ms = elapsed_ms(build_start);

    const auto audit_start = std::chrono::steady_clock::now();
    const audit::Report report = audit::audit_all(stack, audit::Options{});
    const double audit_ms = elapsed_ms(audit_start);
    CR_CHECK_MSG(report.ok(), "audit battery found violations:\n" +
                                  report.summary());

    const double rate = audit_ms > 0 ? 1000.0 * report.checks / audit_ms : 0;
    std::printf("%-14s %6zu %10.1f %10.1f %12zu %12.0f\n", family.c_str(),
                stack.n, build_ms, audit_ms, report.checks, rate);

    obs::JsonValue row = obs::JsonValue::object();
    row["family"] = family;
    row["n"] = static_cast<std::uint64_t>(stack.n);
    row["build_ms"] = build_ms;
    row["audit_ms"] = audit_ms;
    row["checks"] = static_cast<std::uint64_t>(report.checks);
    row["checks_per_s"] = rate;
    doc["families"].push_back(std::move(row));
  }

  // End-to-end campaign sweep at the defaults the CI job uses.
  audit::CampaignOptions options;
  const auto sweep_start = std::chrono::steady_clock::now();
  const audit::CampaignResult result = run_campaign(options);
  const double sweep_ms = elapsed_ms(sweep_start);
  CR_CHECK_MSG(result.ok(), "default campaign sweep found violations");
  std::printf("\ndefault campaign sweep: %zu cases, %zu checks, %.1f ms "
              "(%.1f ms/case)\n",
              result.cases_run, result.checks, sweep_ms,
              result.cases_run > 0 ? sweep_ms / result.cases_run : 0);

  obs::JsonValue sweep = obs::JsonValue::object();
  sweep["cases"] = static_cast<std::uint64_t>(result.cases_run);
  sweep["checks"] = static_cast<std::uint64_t>(result.checks);
  sweep["total_ms"] = sweep_ms;
  sweep["ms_per_case"] =
      result.cases_run > 0 ? sweep_ms / result.cases_run : 0;
  doc["campaign_sweep"] = std::move(sweep);

  write_bench_json("BENCH_audit.json", doc);
  return 0;
}
