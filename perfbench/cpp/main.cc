// perfbench — the sentinelpp benchmark program.
//
//   perfbench --workload check-hot|enterprise-mixed|wire-churn --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --short [--seed N] [--out-dir DIR]
//
// Prints readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. --short runs
// every workload at small size with the same checks, as a self-check.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

/// The workload-specific name of a shared end-to-end metric,
/// with the factor that converts the value into that name's unit.
struct Alias {
  const char* workload;
  const char* metric;
  const char* name;
  double scale;
  const char* unit;
};
constexpr Alias kAliases[] = {
    {"check-hot", "ops_per_s", "check_per_s", 1, "1/s"},
    {"check-hot", "op_p50_ns", "check_p50_ns", 1, "ns"},
    {"check-hot", "op_p99_ns", "check_p99_ns", 1, "ns"},
    {"enterprise-mixed", "ops_per_s", "mixed_ops_per_s", 1, "1/s"},
    {"enterprise-mixed", "tail_ops_per_s", "mixed_tail_ops_per_s", 1, "1/s"},
    {"enterprise-mixed", "op_p50_ns", "mixed_p50_us", 1e-3, "us"},
    {"enterprise-mixed", "op_p99_ns", "mixed_p99_us", 1e-3, "us"},
    {"wire-churn", "ops_per_s", "wire_verdicts_per_s", 1, "1/s"},
    {"wire-churn", "op_p50_ns", "wire_rtt_p50_us", 1e-3, "us"},
    {"wire-churn", "op_p99_ns", "wire_rtt_p99_us", 1e-3, "us"},
};

void PrintReadable(const std::string& workload, const RunResult& result) {
  for (const Metric& m : result.e2e) {
    std::printf("%s e2e %-16s = %.6g %s", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    for (const Alias& a : kAliases) {
      if (workload == a.workload && m.name == a.metric) {
        std::printf("   (%s = %.6g %s)", a.name, m.value * a.scale, a.unit);
      }
    }
    std::printf("\n");
  }
  for (const Metric& m : result.layer) {
    std::printf("%s layer %-28s = %.6g %s\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s attempted=%llu failed=%llu correct=%s\n", workload.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "true" : "false");
  for (const std::string& error : result.errors) {
    std::printf("%s MISMATCH: %s\n", workload.c_str(), error.c_str());
  }
}

std::string Json(const RunResult& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? result.layer : result.e2e;
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

RunResult RunWorkload(const Options& options) {
  if (options.workload == "check-hot") return perfbench::RunCheckHot(options);
  if (options.workload == "enterprise-mixed") {
    return perfbench::RunEnterpriseMixed(options);
  }
  if (options.workload == "wire-churn") return perfbench::RunWireChurn(options);
  RunResult result;
  result.Fail("unknown workload " + options.workload);
  return result;
}

/// Fills per-layer metrics the workload did not exercise with 0, in the
/// fixed report order, so every traced run reports the same set.
void CompleteLayers(RunResult* result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : perfbench::LayerMetricNames()) {
    Metric metric{name, 0, unit};
    for (const Metric& m : result->layer) {
      if (m.name == name) metric.value = m.value;
    }
    ordered.push_back(metric);
  }
  result->layer = std::move(ordered);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       perfbench --short [--seed N] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      options.short_mode = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if ((!options.short_mode && options.workload.empty()) ||
      options.seconds < 1) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("host: nproc=%d effective_parallelism(2)=%.2f "
              "effective_parallelism(%d)=%.2f\n",
              cpus, perfbench::MeasureParallelism(2), cpus,
              perfbench::MeasureParallelism(cpus > 0 ? cpus : 1));
  // Every thread the run starts inherits this single-CPU affinity. The
  // host's effective parallelism swings between 1 and 4 from one minute to
  // the next; confined to one CPU the service's threads hand work to each
  // other by context switch, and the figures repeat from run to run. The
  // CPU is the one other processes used least just now, near-ties going to
  // the one that has served the fewest device interrupts.
  const int cpu = perfbench::QuietestCpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_setaffinity");
    return 1;
  }
  std::printf("pinned to cpu %d\n", cpu);
  std::fflush(stdout);

  if (options.short_mode) {
    bool ok = true;
    for (const char* workload :
         {"check-hot", "enterprise-mixed", "wire-churn"}) {
      for (bool trace : {false, true}) {
        Options run = options;
        run.workload = workload;
        run.trace = trace;
        RunResult result = RunWorkload(run);
        if (trace) CompleteLayers(&result);
        PrintReadable(workload, result);
        ok = ok && result.correct && result.failed == 0;
        std::fflush(stdout);
      }
    }
    std::printf("short self-check: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }

  RunResult result = RunWorkload(options);
  if (options.trace) CompleteLayers(&result);
  PrintReadable(options.workload, result);
  std::printf("%s\n", Json(result, options.trace).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
