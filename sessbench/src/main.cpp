// sessbench — the session platform's benchmark binary.
//
//   sessbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload (see workloads.hpp) for --seconds, checks its
// outputs, prints every metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics (report.hpp EndToEnd), --trace 1 the
// per-layer metrics (report.hpp Layers) and writes the recorded spans to
// .bench_out/ under the working directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace sessbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "sessbench: %s\nusage: sessbench --workload "
               "<sim-mixed|sim-storm|thread-n3|wire-n3-loss10> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

void print_metric(const char* tag, const Metric& m) {
  std::printf("%-6s %-36s %18.6f %s\n", tag, m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Outcome o;
  if (opt.workload == "sim-mixed")
    o = run_sim_workload(opt, false);
  else if (opt.workload == "sim-storm")
    o = run_sim_workload(opt, true);
  else if (opt.workload == "thread-n3")
    o = run_live_workload(opt, false);
  else if (opt.workload == "wire-n3-loss10")
    o = run_live_workload(opt, true);
  else
    return usage(("unknown workload " + opt.workload).c_str());

  for (Metric& m : o.metrics)
    if (!std::isfinite(m.value)) {
      o.violation(m.name + " is not a finite number");
      m.value = 0.0;
    }

  std::printf("sessbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : o.metrics) print_metric("metric", m);
  for (const Metric& m : o.notes) print_metric("note", m);
  std::printf("%-6s %-36s %18.6f ratio (%llu of %llu sessions)\n", "note",
              "error_rate",
              o.attempted == 0 ? 0.0
                               : static_cast<double>(o.failed) /
                                     static_cast<double>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  for (const std::string& v : o.violations)
    std::printf("CHECK FAILED: %s\n", v.c_str());

  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".tsv";
    if (ec || !write_spans(path))
      std::fprintf(stderr, "sessbench: could not write %s\n", path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += o.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.15g", o.metrics[i].value);
    if (i != 0) json += ", ";
    json += "\"" + o.metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + o.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
