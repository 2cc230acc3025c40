// perfbench — the netadv end-to-end benchmark.
//
//   perfbench --workload <attack|cotrain-serve> --seed <n> --seconds <s>
//             --trace <0|1> [--work-dir <dir>] [--commit <id>]
//
// Prints one `# perfbench ...` line with the pinned configuration, then, as
// the last line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// See README.md in this directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"
#include "rl/kernels.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<attack|cotrain-serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--commit <id>]\n",
               why);
  return 2;
}

void print_result(const Report& report) {
  std::uint64_t failed = report.failed;
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {  // a metric that cannot be computed fails
      ++failed;
      value = 0.0;
    }
    char entry[160];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value,
                  m.unit.c_str());
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // The configuration is pinned: these knobs change budgets, threads or
  // arithmetic behind the benchmark's back.
  for (const char* knob :
       {"NETADV_SCALE", "NETADV_THREADS", "NETADV_F32_ROLLOUT", "NETADV_SIMD"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", knob);
      return 2;
    }
  }

  Options options;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !have_trace || !(options.seconds > 0.0)) {
    return usage("--seed, --trace and a positive --seconds are required");
  }

  if (options.workload != "attack" && options.workload != "cotrain-serve") {
    return usage("unknown workload");
  }

  // Progress lines would interleave with the result on standard output.
  netadv::util::set_log_level(netadv::util::LogLevel::kWarn);
  try {
    std::filesystem::create_directories(options.work_dir);
    perfbench::Tracer tracer;
    // Two workloads of two parts each, so that each run measures long
    // enough to average out the machine's drift (see README.md).
    std::vector<std::unique_ptr<perfbench::Part>> parts;
    if (options.workload == "attack") {
      parts.push_back(perfbench::make_abr_attack(options, tracer));
      parts.push_back(perfbench::make_cc_attack(options, tracer));
    } else {
      parts.push_back(perfbench::make_cotrain(options, tracer));
      parts.push_back(perfbench::make_serve(options, tracer));
    }
    const Report report = perfbench::run_workload(options, tracer, parts);
    std::string spans = "-";
    if (options.trace) {
      spans = options.work_dir + "/spans-" + options.workload + "-" +
              std::to_string(options.seed) + ".json";
      tracer.write_json(spans);
    }
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "threads=2 simd=%s build=%s commit=%s spans=%s",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, netadv::rl::kernels::backend_name(),
                PERFBENCH_BUILD_TYPE, commit.c_str(), spans.c_str());
    for (const std::string& note : report.notes) std::printf(" %s", note.c_str());
    std::printf("\n");
    print_result(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
