// check-hot: the read path. One caller thread runs a closed loop of single,
// user-routed, purpose-free CheckAccess calls. Keys are drawn Zipf(0.99)
// from a set larger than the shards' combined cache slots, so most calls
// are zero-hop hits and the rest cross the mailbox into an engine dispatch.
// Nothing mutates policy, sessions or time while the loop runs.

#include <algorithm>
#include <cstdio>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sentinel::AccessOutcome;

constexpr size_t kRoundCalls = size_t{1} << 15;
constexpr size_t kSequenceLength = size_t{1} << 20;
constexpr double kZipfSkew = 0.99;
constexpr int kSwaps = 4;  // Per deployment; even, so each ends at gen 0.
constexpr int kSetups = 5;
// The timed phase is split over this many fresh deployments (each also a
// set-up sample), one after another, and their rounds are pooled: the
// host's speed drifts over seconds, and one deployment's memory layout can
// run faster or slower than the next, so one long loop on one service
// repeats less well.
constexpr int kDeployments = kSetups;

struct LoopStats {
  std::vector<double> round_ops_per_s;
  std::vector<double> round_tail_ops_per_s;  // Each round's last tenth.
  std::vector<double> round_p50_ns;
  std::vector<double> round_p99_ns;
  uint64_t calls = 0;
  size_t samples = 0;
};

void Append(const LoopStats& from, LoopStats* into) {
  auto add = [](const std::vector<double>& a, std::vector<double>* b) {
    b->insert(b->end(), a.begin(), a.end());
  };
  add(from.round_ops_per_s, &into->round_ops_per_s);
  add(from.round_tail_ops_per_s, &into->round_tail_ops_per_s);
  add(from.round_p50_ns, &into->round_p50_ns);
  add(from.round_p99_ns, &into->round_p99_ns);
  into->calls += from.calls;
  into->samples += from.samples;
}

/// Runs `warmup` untimed rounds of `round_calls` checks, then whole timed
/// rounds until `seconds` have passed (at least three). Every verdict,
/// warm-up included, is compared with the oracle's; `spans`, when set,
/// receives one span per timed call.
LoopStats TimedLoop(sentinel::AuthorizationService& service,
                    const std::vector<CheckKey>& keys,
                    const std::vector<uint32_t>& sequence, double seconds,
                    size_t round_calls, int warmup, SpanLog* spans,
                    RunResult* result) {
  LoopStats stats;
  std::vector<double> latency(round_calls);
  const uint32_t span_name = SpanLog::NameId("service.CheckAccess");
  size_t position = 0;
  uint64_t mismatches = 0;
  int64_t deadline = 0;
  for (int round = 0;
       round < warmup + 3 || NowNs() < deadline; ++round) {
    if (round == warmup) {
      deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    }
    const bool timed = round >= warmup;
    uint64_t failed = 0;
    const int64_t round_start = NowNs();
    const size_t tail_from = round_calls - round_calls / 10;
    int64_t tail_start = round_start;
    for (size_t i = 0; i < round_calls; ++i) {
      if (i == tail_from) tail_start = NowNs();
      const CheckKey& key = keys[sequence[position]];
      position = position + 1 == sequence.size() ? 0 : position + 1;
      const int64_t start = NowNs();
      const sentinel::AccessDecision decision =
          service.CheckAccess(key.request);
      const int64_t end = NowNs();
      latency[i] = static_cast<double>(end - start);
      if (decision.outcome != AccessOutcome::kDecided) {
        ++failed;
      } else if (decision.allowed != key.allow[0]) {
        ++mismatches;
      }
      if (spans != nullptr && timed) {
        spans->Add(stats.calls + i, span_name, -1, start, end);
      }
    }
    const int64_t round_end = NowNs();
    result->attempted += round_calls;
    result->failed += failed;
    if (!timed) continue;
    const double round_s = static_cast<double>(round_end - round_start) / 1e9;
    stats.round_tail_ops_per_s.push_back(
        static_cast<double>(round_calls - tail_from) /
        (static_cast<double>(round_end - tail_start) / 1e9));
    stats.calls += round_calls;
    stats.round_ops_per_s.push_back(static_cast<double>(round_calls) /
                                    round_s);
    const Percentiles p = Summarize(latency);
    stats.round_p50_ns.push_back(p.p50);
    stats.round_p99_ns.push_back(p.p99);
    stats.samples += p.count;
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                 " CheckAccess verdicts differ from the oracle's");
  }
  return stats;
}

/// Per-call timing of a bare layer over the first `calls` keys of the
/// sequence; returns the windowed p50 in ns.
template <typename Fn>
double BareP50(const std::vector<uint32_t>& sequence, size_t calls, Fn&& fn) {
  std::vector<double> latency;
  latency.reserve(calls);
  for (size_t i = 0; i < calls && i < sequence.size(); ++i) {
    const int64_t start = NowNs();
    fn(sequence[i]);
    latency.push_back(static_cast<double>(NowNs() - start));
  }
  return Summarize(latency).p50;
}

}  // namespace

RunResult RunCheckHot(const Options& options) {
  RunResult result;
  const Sizes sizes = SizesFor(options);
  const Inputs inputs = MakeInputs(sizes);

  // ---- Oracle (outside every timed region). ----
  auto parsed = sentinel::PolicyParser::Parse(inputs.policy_text);
  if (!parsed.ok()) {
    result.Fail("policy parse failed");
    return result;
  }
  auto base = std::make_shared<const sentinel::Policy>(std::move(*parsed));
  sentinel::SimulatedClock oracle_clock(StartTime());
  sentinel::DirectEnforcer oracle(&oracle_clock);
  if (!oracle.LoadPolicy(*base).ok()) {
    result.Fail("oracle LoadPolicy failed");
    return result;
  }
  const std::vector<WarmSession> plan = WarmPlan(*base);
  const std::vector<uint8_t> warm_want = WarmOracle(oracle, plan);
  const Churn churn = MakeChurn(base, oracle, plan);
  std::vector<CheckKey> keys =
      MakeCheckKeys(plan, oracle, sizes.keys, options.seed);
  FillVerdicts(oracle, 0, &keys);
  // Swap probe: the first warm session holding the churn role, asking for
  // the toggled permission, so each swap flips its verdict.
  sentinel::AccessRequest probe;
  for (const WarmSession& session : plan) {
    if (oracle.rbac().SessionRoles(session.session).count(churn.role) > 0) {
      probe.user = session.user;
      probe.session = session.session;
      break;
    }
  }
  probe.operation = kChurnOperation;
  probe.object = kChurnObject;
  const std::vector<uint8_t> swap_want =
      SwapProbeOracle(oracle, churn, probe, kSwaps);
  const std::vector<uint32_t> sequence =
      ZipfSequence(keys.size(), kSequenceLength, kZipfSkew, options.seed);
  size_t granted = 0;
  for (const CheckKey& key : keys) granted += key.allow[0] ? 1 : 0;
  std::printf("check-hot: users=%zu keys=%zu granted=%.3f zipf=%.2f "
              "cache_slots=%zu\n",
              plan.size(), keys.size(),
              static_cast<double>(granted) / static_cast<double>(keys.size()),
              kZipfSkew, kCacheSlots * kShards);

  const double seconds = options.short_mode ? 1.0 : options.seconds;
  const size_t round_calls = options.short_mode ? kRoundCalls / 8 : kRoundCalls;
  std::vector<double> setups;

  if (!options.trace) {
    LoopStats stats;
    std::vector<double> swaps;
    int64_t rss_before = 0, rss_after = 0;
    for (int d = 0; d < kDeployments; ++d) {
      if (d == 0) rss_before = RssBytes();
      Deployment deployment =
          Deploy(inputs, BaseServiceConfig(), &plan, &result);
      if (!deployment.service) return result;
      CheckWarm(deployment.warm_verdicts, warm_want, &result);
      setups.push_back(deployment.setup_s);
      Append(TimedLoop(*deployment.service, keys, sequence,
                       seconds / kDeployments, round_calls, 1, nullptr,
                       &result),
             &stats);
      if (d == 0) rss_after = RssBytes();
      const std::vector<double> probed = SwapProbe(
          *deployment.service, churn, probe, swap_want, kSwaps, &result);
      swaps.insert(swaps.end(), probed.begin(), probed.end());
    }
    result.E2e("setup_s", Median(setups), "s");
    result.E2e("service_rss_mb",
               static_cast<double>(rss_after - rss_before) / (1 << 20), "MiB");
    result.E2e("ops_per_s", Median(stats.round_ops_per_s), "1/s");
    result.E2e("tail_ops_per_s", Median(stats.round_tail_ops_per_s), "1/s");
    result.E2e("op_p50_ns", Median(stats.round_p50_ns), "ns");
    result.E2e("op_p99_ns", Median(stats.round_p99_ns), "ns");
    result.E2e("swap_p50_ms", Median(swaps), "ms");
    std::printf("check-hot: deployments=%d rounds=%zu calls=%llu "
                "latency_samples=%zu swaps=%zu setups=%zu\n",
                kDeployments, stats.round_ops_per_s.size(),
                static_cast<unsigned long long>(stats.calls), stats.samples,
                swaps.size(), setups.size());
    return result;
  }

  // ---- Traced run: untraced half, traced half, then bare layers. ----
  Deployment deployment = Deploy(inputs, BaseServiceConfig(), &plan, &result);
  if (!deployment.service) return result;
  CheckWarm(deployment.warm_verdicts, warm_want, &result);
  sentinel::AuthorizationService& service = *deployment.service;
  const LoopStats untraced = TimedLoop(service, keys, sequence, seconds / 2,
                                       round_calls, 1, nullptr, &result);
  SpanLog spans;
  const RegistryCounts before = ReadRegistry(service);
  const LoopStats traced = TimedLoop(service, keys, sequence, seconds / 2,
                                     round_calls, 0, &spans, &result);
  (void)SwapProbe(service, churn, probe, swap_want, kSwaps, &result);
  RegistryLayerMetrics(service, before, ReadRegistry(service),
                       static_cast<double>(traced.calls), &result);
  deployment.service.reset();

  sentinel::SimulatedClock engine_clock(StartTime());
  auto engine = CoreLayerMetrics(inputs, churn, &engine_clock, &result);
  WarmEngine(*engine, plan);
  const size_t bare_calls = std::min<size_t>(sequence.size(), 200000);
  uint64_t bare_mismatches = 0;
  result.Layer("core.engine_check_ns_p50",
               BareP50(sequence, bare_calls,
                       [&](uint32_t k) {
                         const auto& r = keys[k].request;
                         if (engine->CheckAccess(r.session, r.operation,
                                                 r.object)
                                 .allowed != keys[k].allow[0]) {
                           ++bare_mismatches;
                         }
                       }),
               "ns");
  if (bare_mismatches > 0) {
    result.Fail("bare engine verdicts differ from the oracle's");
  }
  result.Layer("rbac.check_ns_p50",
               BareP50(sequence, bare_calls,
                       [&](uint32_t k) {
                         const auto& r = keys[k].request;
                         (void)engine->rbac().CheckAccess(r.session,
                                                          r.operation,
                                                          r.object);
                       }),
               "ns");
  result.Layer("rbac.sessions_live",
               static_cast<double>(engine->rbac().db().session_count()),
               "count");
  const double untraced_rate = Median(untraced.round_ops_per_s);
  const double traced_rate = Median(traced.round_ops_per_s);
  result.Layer("trace.overhead_pct",
               traced_rate > 0 ? (untraced_rate / traced_rate - 1) * 100 : 0,
               "%");
  result.Layer("trace.spans", static_cast<double>(spans.spans().size()),
               "count");
  std::printf("check-hot traced: ops_per_s untraced=%.1f traced=%.1f "
              "op_p50_ns untraced=%.1f traced=%.1f\n",
              untraced_rate, traced_rate, Median(untraced.round_p50_ns),
              Median(traced.round_p50_ns));
  const std::string path = options.out_dir + "/spans-check-hot-" +
                           std::to_string(options.seed) + ".csv";
  if (!spans.WriteCsv(path)) result.Fail("cannot write " + path);

  // The wire layers are measured here too. wire-churn's end-to-end figures
  // did not repeat from run to run, so it is no benchmark workload; its
  // traced pass over this population and key mix still yields the codec,
  // reactor and audit metrics, with all of its checks.
  Options wire_options = options;
  wire_options.workload = "wire-churn";
  wire_options.seconds = 10;  // Two 5 s passes.
  const RunResult wire = RunWireChurn(wire_options);
  result.attempted += wire.attempted;
  result.failed += wire.failed;
  for (const std::string& error : wire.errors) {
    result.Fail("wire pass: " + error);
  }
  for (const Metric& m : wire.layer) {
    if (m.name.rfind("wire.", 0) == 0 || m.name.rfind("net.", 0) == 0 ||
        m.name.rfind("audit.", 0) == 0) {
      result.Layer(m.name, m.value, m.unit);
    }
  }
  return result;
}

}  // namespace perfbench
