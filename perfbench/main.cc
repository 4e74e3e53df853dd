// End-to-end benchmark runner for StreamLake. Runs one workload against
// the public core::StreamLake API for a given wall time, checks every
// result, and prints a human-readable report followed by one JSON line:
//
//   perfbench_runner --workload <ingest|analytics|lakehouse_mixed>
//                    --seed <n> --seconds <n> --trace <0|1>
//                    --spans-out <path>
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics and the span file is written to
// --spans-out. See README.md for what each metric means.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;
using perfbench::RunOptions;

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload "
               "<ingest|analytics|lakehouse_mixed> --seed <n> --seconds <n> "
               "--trace <0|1> --spans-out <path>\n",
               problem.c_str());
  std::exit(2);
}

// A positive decimal integer; anything else (empty, signs, trailing text,
// zero, overflow) is rejected rather than silently read as 0.
uint64_t ParsePositive(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " needs a positive whole number, got '" + text + "'");
  }
  errno = 0;
  unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value == 0) {
    Usage(flag + " needs a positive whole number, got '" + text + "'");
  }
  return value;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParsePositive(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      uint64_t seconds = ParsePositive(flag, value);
      if (seconds > 3600) Usage("--seconds must be at most 3600");
      options.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload != "ingest" && options.workload != "analytics" &&
      options.workload != "lakehouse_mixed") {
    Usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed) Usage("missing --seed");
  if (!have_seconds) Usage("missing --seconds");
  if (!have_trace) Usage("missing --trace");
  if (options.spans_out.empty()) Usage("missing --spans-out");
  return options;
}

// JSON number with every digit a double carries.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options = ParseArgs(argc, argv);
  perfbench::Tracer tracer(options.trace);

  Outcome out;
  if (options.workload == "ingest") {
    out = perfbench::RunIngest(options, &tracer);
  } else if (options.workload == "analytics") {
    out = perfbench::RunAnalytics(options, &tracer);
  } else {
    out = perfbench::RunLakehouseMixed(options, &tracer);
  }

  // Deterministic counts must repeat whenever an input set is replayed on
  // a fresh deployment (one client).
  std::map<int, perfbench::Fingerprint> first_of_set;
  for (const perfbench::Fingerprint& fp : out.fingerprints) {
    auto [it, inserted] = first_of_set.emplace(fp.input_set, fp);
    if (inserted || it->second == fp) continue;
    out.deterministic = false;
    std::printf("determinism: replay differs\n  first: %s\n  again: %s\n",
                it->second.ToString().c_str(), fp.ToString().c_str());
  }

  const double setup_s = out.setup_s.Quantile(0.5);
  const double peak_rss_mb = perfbench::PeakRssMb();
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  const double failed_ratio =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / out.attempted;
  out.named.push_back({"failed_op_ratio", {failed_ratio, "ratio"}});
  out.named.push_back({"setup_s", {setup_s, "s"}});
  out.named.push_back({"peak_rss_mb", {peak_rss_mb, "MiB"}});

  // ---- human-readable report ----
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : out.notes) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  %-34s %zu (median reported)\n", "setups",
              out.setup_s.count());
  if (!first_of_set.empty()) {
    std::printf("  %-34s %s\n", "epoch counts",
                first_of_set.begin()->second.ToString().c_str());
  }
  std::printf("  %-34s %zu epochs over %zu input sets, replays %s\n",
              "determinism", out.fingerprints.size(), first_of_set.size(),
              out.deterministic ? "identical" : "DIFFERENT");
  for (const auto& [name, m] : out.named) {
    std::printf("  %-34s %.6g %s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      // A p99 needs at least 10 samples beyond it.
      std::printf(" (%zu samples%s)", m.samples,
                  m.samples >= 1000 ? "" : ", too few for a p99");
    }
    std::printf("\n");
  }
  for (const std::string& problem : out.problems) {
    std::printf("  FAILED %s\n", problem.c_str());
  }

  if (options.trace) {
    std::map<std::string, perfbench::Tracer::SelfTime> self =
        tracer.SelfTimes();
    std::printf("  span self time (traced ops only):\n");
    std::printf("    %-28s %8s %12s %12s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const auto& [name, s] : self) {
      std::printf("    %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(s.calls), s.total_ms,
                  s.self_ms);
    }
    if (!tracer.WriteSpans(options.spans_out)) {
      std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                   options.spans_out.c_str());
      return 1;
    }
    std::printf("  spans written to %s\n", options.spans_out.c_str());
  }

  const bool correct =
      out.attempted > 0 && out.failed == 0 && out.deterministic;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(options.trace ? out.per_layer : out.end_to_end)
                  .c_str());
  return 0;
}
