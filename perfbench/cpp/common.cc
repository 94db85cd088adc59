#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace perfbench {

double WindowQuantile(std::vector<double>& samples, double q,
                      double half_width) {
  const size_t n = samples.size();
  if (n == 0) return 0;
  auto rank = [n](double f) {
    const double r = f * static_cast<double>(n);
    if (r <= 0) return size_t{0};
    return std::min(n - 1, static_cast<size_t>(r));
  };
  const size_t lo = rank(q - half_width);
  const size_t hi = std::max(lo, rank(q + half_width));
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  if (hi > lo) {
    std::nth_element(samples.begin() + lo + 1, samples.begin() + hi,
                     samples.end());
  }
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo + 1);
}

Percentiles Summarize(std::vector<double>& samples) {
  Percentiles out;
  out.count = samples.size();
  out.p50 = WindowQuantile(samples, 0.50, 0.005);
  out.p99 = WindowQuantile(samples, 0.99, 0.001);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total = 0, resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

namespace {

/// Fixed integer work the optimizer cannot fold (the result is returned).
uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

double MeasureParallelism(int threads) {
  constexpr uint64_t kIterations = 20'000'000;
  std::vector<uint64_t> sink(static_cast<size_t>(threads) + 1);
  int64_t start = NowNs();
  sink[0] = Spin(kIterations, 1);
  const double one = static_cast<double>(NowNs() - start);
  start = NowNs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      sink[static_cast<size_t>(t) + 1] =
          Spin(kIterations, static_cast<uint64_t>(t) + 2);
    });
  }
  for (auto& thread : pool) thread.join();
  const double all = static_cast<double>(NowNs() - start);
  uint64_t check = 0;
  for (uint64_t v : sink) check ^= v;
  if (check == 0) std::fprintf(stderr, "spin produced 0\n");
  return all > 0 ? threads * one / all : 0;
}

namespace {

/// Jiffies per CPU from /proc/stat ("cpuN ..." lines): idle + iowait, and
/// irq + softirq (time spent serving device interrupts).
struct CpuJiffies {
  long long idle = 0;
  long long interrupts = 0;
};

std::unordered_map<int, CpuJiffies> ReadCpuJiffies() {
  std::unordered_map<int, CpuJiffies> cpus;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
              softirq = 0;
    if (fields >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq) {
      cpus[cpu] = CpuJiffies{idle + iowait, irq + softirq};
    }
  }
  return cpus;
}

}  // namespace

int QuietestCpu() {
  const int current = sched_getcpu();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return current < 0 ? 0 : current;
  }
  const auto before = ReadCpuJiffies();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto after = ReadCpuJiffies();
  std::vector<std::pair<int, long long>> idle;  // (cpu, idle over the sample)
  long long most_idle = -1;
  for (const auto& [cpu, now] : after) {
    const auto it = before.find(cpu);
    if (it == before.end() || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    idle.emplace_back(cpu, now.idle - it->second.idle);
    most_idle = std::max(most_idle, idle.back().second);
  }
  // An idle host leaves every CPU within a jiffy or two of the others.
  // Among those, take the one that has served the fewest device
  // interrupts since boot: interrupts are steered to fixed CPUs (on the
  // reference host most network ones to CPU 0), and each one preempts the
  // pinned threads' hand-offs.
  int best = current < 0 ? 0 : current;
  long long best_interrupts = -1;
  for (const auto& [cpu, cpu_idle] : idle) {
    if (cpu_idle + 2 < most_idle) continue;
    const long long served = after.at(cpu).interrupts;
    if (best_interrupts < 0 || served < best_interrupts ||
        (served == best_interrupts && cpu < best)) {
      best_interrupts = served;
      best = cpu;
    }
  }
  return best;
}

namespace {

std::mutex& NamesMutex() {
  static std::mutex mu;
  return mu;
}
std::vector<std::string>& NameTable() {
  static std::vector<std::string> names;
  return names;
}

}  // namespace

uint32_t SpanLog::NameId(const std::string& name) {
  std::lock_guard<std::mutex> lock(NamesMutex());
  auto& names = NameTable();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<uint32_t>(i);
  }
  names.push_back(name);
  return static_cast<uint32_t>(names.size() - 1);
}

std::string SpanLog::Name(uint32_t id) {
  std::lock_guard<std::mutex> lock(NamesMutex());
  return NameTable().at(id);
}

int32_t SpanLog::Add(uint64_t request, uint32_t name, int32_t parent,
                     int64_t start_ns, int64_t end_ns) {
  if (spans_.size() >= kCap) return -1;
  if (spans_.capacity() == 0) spans_.reserve(4096);
  spans_.push_back(Span{request, name, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::Durations(uint32_t name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

void SpanLog::Absorb(SpanLog&& other) {
  const auto base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "request,name,parent,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << span.request << ',' << Name(span.name) << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return out.good();
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back(what);
}

void RunResult::Set(std::vector<Metric>* into, const std::string& name,
                    double value, const std::string& unit) {
  for (Metric& metric : *into) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  into->push_back(Metric{name, value, unit});
}

}  // namespace perfbench
