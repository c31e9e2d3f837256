// perfbench: the repository benchmark's binary.
//
//   perfbench --workload dashboard|adhoc|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Builds the workload's inputs from the seed, drives them through the
// library's public API in this one process, checks every answer, and
// prints human-readable lines followed by one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer and reports the per-layer
// metrics instead. Exits non-zero when any operation failed or any answer
// was wrong. Normally launched through perfbench/run.py, which builds it.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dashboard|adhoc|ingest --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

void PrintMetrics(const char* kind, const std::vector<Report::Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-10s %-34s %16.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const Report& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& ms = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  Tracer::Enable(false);
  Report report;
  Status st;
  if (args.workload == "dashboard") {
    st = RunDashboard(args, &report);
  } else if (args.workload == "adhoc") {
    st = RunAdhoc(args, &report);
  } else if (args.workload == "ingest") {
    st = RunIngest(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }

  if (args.trace) {
    const std::string path = args.work_dir + "/../perfbench-trace-" +
                             args.workload + "-" + std::to_string(args.seed) +
                             ".jsonl";
    const size_t spans = Tracer::SpanCount();
    if (Tracer::WriteJsonl(path)) {
      report.Note("trace: " + std::to_string(spans) + " spans written to " +
                  path);
    }
  }
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  const double failed_frac =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("outcome    failed_frac %.6g (%llu failed of %llu attempted)\n",
              failed_frac, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& f : report.failures) {
    std::printf("FAILED     %s\n", f.c_str());
  }
  PrintMetrics("end2end", report.end_to_end);
  PrintMetrics("layer", report.per_layer);
  PrintJson(report, args.trace);
  std::fflush(stdout);
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
