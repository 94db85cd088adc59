// Cached-hit A/B: the same warm (session, op, object) key answered through
// the two hit paths, one closed-loop caller against one shard:
//
//   {0}  mailbox hit — the envelope crosses the MPSC ring, the shard thread
//        wakes, its private cache replays the verdict, the reply latch
//        wakes the caller. Two scheduler hops per verdict.
//   {1}  zero-hop hit — the caller probes the shard's published seqlock
//        snapshot and reconstructs the verdict in place. No hop, no lock.
//
// Latency is what this path exists for, so besides google-benchmark's own
// per-iteration timing the inner loop records ns/op per 64-call batch
// (batching keeps the clock reads out of the measured ops) and reports the
// p50/p99 of those samples as counters — the numbers BENCH_PR6.json quotes.
// hit_frac keeps the arms honest: both must replay from a cache, not
// re-derive.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kBatch = 64;

Policy HotKeyPolicy() {
  Policy policy("fastpath-bench");
  RoleSpec role;
  role.name = "reader";
  role.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(role));
  UserSpec user;
  user.name = "alice";
  user.assignments.insert("reader");
  (void)policy.AddUser(std::move(user));
  return policy;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void BM_Service_CachedHit(benchmark::State& state) {
  const bool fastpath = state.range(0) != 0;

  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = fastpath;
  auto service = std::make_unique<AuthorizationService>(config);
  if (!service->LoadPolicy(HotKeyPolicy()).ok()) std::abort();
  (void)service->CreateSession("alice", "s1");
  (void)service->AddActiveRole("alice", "s1", "reader");

  const AccessRequest request{"alice", "s1", "read", "ledger", ""};
  // Warm: the first call misses and fills, the second proves the replay.
  if (!service->CheckAccess(request).allowed) std::abort();
  if (!service->CheckAccess(request).allowed) std::abort();

  std::vector<double> samples;
  samples.reserve(1 << 16);
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(service->CheckAccess(request));
    }
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()) /
        kBatch);
  }

  const double total = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<int64_t>(total));
  std::sort(samples.begin(), samples.end());
  state.counters["p50_ns"] = Percentile(samples, 50);
  state.counters["p99_ns"] = Percentile(samples, 99);
  // Replays answered from a cache (either one), as a fraction of the
  // measured calls. Both arms must sit at ~1.0 for the A/B to mean
  // anything; the fast arm's hits must be *fast-path* hits specifically.
  ServiceStats stats = service->Stats();
  const uint64_t cached = fastpath ? stats.fastpath_hits : stats.cache_hits;
  state.counters["hit_frac"] =
      total == 0 ? 0.0 : static_cast<double>(cached) / total;
}
BENCHMARK(BM_Service_CachedHit)
    ->Arg(0)  // Mailbox hit: ring + shard thread + reply latch.
    ->Arg(1)  // Zero-hop hit: caller-side snapshot probe.
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
