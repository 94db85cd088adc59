// Shared plumbing of the perfbench program: timing, order statistics, host
// probes, the in-memory span log and the result record every workload fills.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Mean of the samples whose rank lies within `half_width` of quantile `q`
/// (both as fractions of the sample count). Averaging a narrow rank window
/// keeps whole-nanosecond samples from collapsing onto one integer.
/// Reorders `samples`. Returns 0 for an empty vector.
double WindowQuantile(std::vector<double>& samples, double q,
                      double half_width);

/// Timing summary of one batch of samples: windowed p50 (±0.5%) and p99
/// (±0.1%), with the sample count.
struct Percentiles {
  double p50 = 0;
  double p99 = 0;
  size_t count = 0;
};
Percentiles Summarize(std::vector<double>& samples);

double Median(std::vector<double> values);

/// Resident set size of this process in bytes (/proc/self/statm).
int64_t RssBytes();

/// Effective parallelism of the host right now: `threads` threads each run
/// the same fixed spin; the result is threads × (one thread's wall time) /
/// (their joint wall time). 1.0 means the threads ran one after another.
double MeasureParallelism(int threads);

/// The CPU, among those this process may run on, that was idle longest
/// over a short sample of /proc/stat, near-ties going to the CPU that has
/// served the fewest device interrupts (the current CPU if that fails).
int QuietestCpu();

/// One span of the benchmark's own trace: a call the benchmark made into one
/// layer of the library. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same log, or -1.
struct Span {
  uint64_t request = 0;
  uint32_t name = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Append-only span store, one per recording thread. Kept in memory and
/// written out once the workload ends; capped so a long traced loop cannot
/// grow without bound (spans past the cap are not stored).
class SpanLog {
 public:
  static constexpr size_t kCap = 400000;

  /// Interns a span name; the same string always maps to the same id.
  static uint32_t NameId(const std::string& name);
  static std::string Name(uint32_t id);

  /// Records a finished span and returns its index (-1 when over the cap).
  int32_t Add(uint64_t request, uint32_t name, int32_t parent,
              int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ns of every stored span named `name`.
  std::vector<double> Durations(uint32_t name) const;

  /// Moves `other`'s spans into this log (re-basing parent indexes).
  void Absorb(SpanLog&& other);

  /// Writes one CSV line per span: request,name,parent,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` is printed with --trace 0, `layer`
/// with --trace 1; both are printed as readable lines either way.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few mismatches, for the log.
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void Fail(const std::string& what);
  void Set(std::vector<Metric>* into, const std::string& name, double value,
           const std::string& unit);
  void E2e(const std::string& name, double value, const std::string& unit) {
    Set(&e2e, name, value, unit);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    Set(&layer, name, value, unit);
  }
};

/// Run-wide options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Small inputs and short phases: the benchmark's self-check.
  bool short_mode = false;
  /// Directory for the trace file and the audit capture (inside the
  /// checkout; created on demand).
  std::string out_dir = ".bench_build/out";
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
