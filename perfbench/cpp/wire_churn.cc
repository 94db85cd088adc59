// wire-churn: reads beside writes. An in-process WireServer on loopback
// fronts the service, with the audit exporter writing a JSONL capture.
// Wire clients send the check-hot key mix in two phases: a closed loop of
// pipelined batches (capacity), then — once the capture is flushed — an open
// loop at a fixed offered rate with every request timed from its scheduled
// send. Meanwhile one admin thread applies the same-salt
// WithToggledPermission swap at a fixed cadence, so the policy alternates
// between two generations; a share of the requests ask for the toggled
// permission, so swaps show up as flips.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "audit/record.h"
#include "common/rng.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sentinel::AccessOutcome;

/// Open-loop clients. The closed loop runs on the first alone: with one
/// pipelined client every reactor sweep folds exactly one batch, where two
/// racing clients on one CPU made the batch size — and the throughput —
/// depend on the order the scheduler happened to pick.
constexpr int kClients = 2;
constexpr size_t kBatch = 32;
/// Offered load of the open-loop phase, requests per second over all
/// clients — an absolute rate, well below the closed-loop capacity.
constexpr double kOfferedRate = 2000;
constexpr int64_t kSwapPeriodNs = 1'000'000'000;
constexpr double kToggledShare = 0.1;
constexpr double kClosedShare = 0.4;
constexpr size_t kSequenceLength = size_t{1} << 20;
constexpr int64_t kSliceNs = 50'000'000;
/// The closed loop's first half second fills the decision cache and is
/// checked but not timed.
constexpr int64_t kWarmupNs = 500'000'000;
constexpr int kSetups = 5;

/// One answered request. Closed-loop requests share their batch's times;
/// `sched_ns` is 0 for them.
struct Sample {
  uint32_t key = 0;
  bool allowed = false;
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  int64_t decision_us = 0;  // The service's submit-to-decision latency.
};

struct ClientLog {
  std::vector<Sample> closed;
  std::vector<Sample> open;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  SpanLog spans;
};

struct SwapRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int gen = 0;  // Generation in force after the swap.
  bool ok = false;
};

struct PassStats {
  double ops_per_s = 0;
  double tail_ops_per_s = 0;
  Percentiles rtt;
  double lateness_p50_us = 0;
  double lateness_max_us = 0;
  std::vector<double> swaps_ms;
  double setup_s = 0;
  size_t closed_verdicts = 0;
  size_t flips_checked = 0;
};

/// Keys and their draw sequence: Zipf over the check keys, with
/// kToggledShare of the draws asking for the churn permission.
struct KeyMix {
  std::vector<CheckKey> keys;
  std::vector<uint32_t> sequence;
};

void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

void ClosedLoop(sentinel::net::WireClient& client, const KeyMix& mix,
                size_t offset, int64_t until_ns, ClientLog* log) {
  std::vector<sentinel::AccessRequest> batch(kBatch);
  std::vector<uint32_t> batch_keys(kBatch);
  size_t position = offset % mix.sequence.size();
  while (NowNs() < until_ns) {
    for (size_t j = 0; j < kBatch; ++j) {
      batch_keys[j] = mix.sequence[position];
      batch[j] = mix.keys[batch_keys[j]].request;
      position = position + 1 == mix.sequence.size() ? 0 : position + 1;
    }
    log->attempted += kBatch;
    const int64_t send = NowNs();
    auto answers = client.CheckBatch(batch);
    const int64_t recv = NowNs();
    if (!answers.ok()) {
      log->failed += kBatch;
      log->error = std::string(answers.status().message());
      return;
    }
    for (size_t j = 0; j < kBatch; ++j) {
      const sentinel::AccessDecision& d = (*answers)[j];
      if (d.outcome != AccessOutcome::kDecided) {
        ++log->failed;
        continue;
      }
      log->closed.push_back(
          Sample{batch_keys[j], d.allowed, 0, send, recv, d.latency});
    }
  }
}

void OpenLoop(sentinel::net::WireClient& client, const KeyMix& mix,
              size_t offset, int64_t first_ns, int64_t period_ns,
              int64_t until_ns, bool traced, ClientLog* log) {
  const uint32_t request_span = SpanLog::NameId("wire.request");
  const uint32_t decision_span = SpanLog::NameId("service.decision");
  // The default 50 us timer slack would make every send late by about
  // that much; the generator's own lateness is not the system's.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  size_t position = offset % mix.sequence.size();
  for (int64_t sched = first_ns; sched < until_ns; sched += period_ns) {
    SleepUntil(sched);
    const uint32_t key = mix.sequence[position];
    position = position + 1 == mix.sequence.size() ? 0 : position + 1;
    ++log->attempted;
    const int64_t send = NowNs();
    auto answer = client.Check(mix.keys[key].request);
    const int64_t recv = NowNs();
    if (!answer.ok()) {
      ++log->failed;
      log->error = std::string(answer.status().message());
      return;
    }
    if (answer->outcome != AccessOutcome::kDecided) {
      ++log->failed;
      continue;
    }
    log->open.push_back(
        Sample{key, answer->allowed, sched, send, recv, answer->latency});
    if (traced) {
      const uint64_t id = log->open.size();
      const int32_t parent = log->spans.Add(id, request_span, -1, send, recv);
      log->spans.Add(id, decision_span, parent,
                     recv - answer->latency * 1000, recv);
    }
  }
}

/// Checks every sample against the generation window it ran in. Returns
/// how many verdicts on flipping keys were checked after a swap.
size_t CheckGenerations(const std::vector<const Sample*>& samples,
                        const KeyMix& mix,
                        const std::vector<SwapRecord>& swaps,
                        RunResult* result) {
  std::vector<size_t> flips(swaps.size() + 1, 0);
  // Generation in force after swap i (failed swaps leave it unchanged).
  std::vector<int> gen_after(swaps.size() + 1, 0);
  for (size_t i = 0; i < swaps.size(); ++i) {
    gen_after[i + 1] = swaps[i].ok ? swaps[i].gen : gen_after[i];
  }
  uint64_t mismatches = 0;
  size_t checked_flips = 0;
  for (const Sample* s : samples) {
    const CheckKey& key = mix.keys[s->key];
    // Swaps that ended before this request was sent.
    const size_t done = static_cast<size_t>(
        std::upper_bound(swaps.begin(), swaps.end(), s->send_ns,
                         [](int64_t t, const SwapRecord& w) {
                           return t < w.end_ns;
                         }) -
        swaps.begin());
    const bool overlaps = done < swaps.size() &&
                          swaps[done].start_ns <= s->recv_ns;
    if (overlaps) {
      if (s->allowed != key.allow[0] && s->allowed != key.allow[1]) {
        ++mismatches;
      }
      continue;
    }
    const int gen = gen_after[done];
    if (s->allowed != key.allow[gen]) {
      ++mismatches;
    } else if (key.allow[0] != key.allow[1] && done > 0) {
      ++flips[done];
      ++checked_flips;
    }
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                 " wire verdicts match neither the generation in force nor "
                 "an overlapping swap's");
  }
  for (size_t i = 0; i < swaps.size(); ++i) {
    if (swaps[i].ok && flips[i + 1] == 0) {
      result->Fail("no checked verdict flipped after swap #" +
                   std::to_string(i));
    }
  }
  return checked_flips;
}

/// Parses the audit capture and reconciles it with the exporter counters
/// and with the service's own decision counts.
void CheckAudit(const std::string& path,
                const sentinel::audit::AuditExporter::Counters& counters,
                uint64_t expected_records, RunResult* result) {
  std::ifstream in(path);
  std::string line;
  uint64_t lines = 0;
  uint64_t bad = 0;
  sentinel::audit::AuditRecord record;
  while (std::getline(in, line)) {
    ++lines;
    if (!sentinel::audit::ParseJsonLine(line, &record)) ++bad;
  }
  if (bad > 0) {
    result->Fail(std::to_string(bad) + " audit lines do not parse");
  }
  if (lines != counters.records) {
    result->Fail("audit capture has " + std::to_string(lines) +
                 " lines, exporter counted " +
                 std::to_string(counters.records));
  }
  if (counters.records + counters.drops != expected_records) {
    result->Fail("audit records+drops " +
                 std::to_string(counters.records + counters.drops) +
                 " != decisions made " + std::to_string(expected_records));
  }
}

/// One complete wire-churn pass on a fresh deployment.
PassStats RunPass(const Options& options, const Inputs& inputs,
                  const std::vector<WarmSession>& plan,
                  const std::vector<uint8_t>& warm_want, const Churn& churn,
                  const KeyMix& mix, double seconds, bool traced,
                  int64_t* rss_before, int64_t* rss_after,
                  RunResult* result) {
  PassStats stats;
  const std::string audit_path = options.out_dir + "/audit-" +
                                 std::to_string(getpid()) + "-" +
                                 (traced ? "traced" : "plain") + ".jsonl";
  std::filesystem::remove(audit_path);
  sentinel::ServiceConfig config = BaseServiceConfig();
  config.audit_path = audit_path;
  if (rss_before != nullptr) *rss_before = RssBytes();
  Deployment deployment = Deploy(inputs, config, &plan, result);
  if (!deployment.service) return stats;
  stats.setup_s = deployment.setup_s;
  CheckWarm(deployment.warm_verdicts, warm_want, result);
  sentinel::AuthorizationService& service = *deployment.service;
  const RegistryCounts before = ReadRegistry(service);

  sentinel::net::WireServer server(&service, sentinel::net::ServerConfig{});
  const sentinel::Status started = server.Start();
  if (!started.ok()) {
    result->Fail("WireServer failed to start: " +
                 std::string(started.message()));
    return stats;
  }
  std::vector<std::unique_ptr<sentinel::net::WireClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = sentinel::net::WireClient::Connect("127.0.0.1",
                                                     server.port());
    if (!client.ok()) {
      result->Fail("WireClient failed to connect");
      return stats;
    }
    clients.push_back(std::move(*client));
  }

  const int64_t period = static_cast<int64_t>(kClients * 1e9 / kOfferedRate);
  std::vector<SwapRecord> swaps;
  std::vector<ClientLog> logs(kClients);
  int next_gen = 1;
  // One phase within [start, end): the clients run their loops and, in the
  // open loop, the admin thread swaps at the fixed cadence.
  auto run_phase = [&](bool open, int64_t start, int64_t end) {
    std::thread admin([&] {
      for (int64_t at = start + kSwapPeriodNs / 2;
           open && at < end - kSwapPeriodNs; at += kSwapPeriodNs) {
        SleepUntil(at);
        SwapRecord swap;
        swap.gen = next_gen;
        swap.start_ns = NowNs();
        swap.ok = service.ApplyPolicyUpdate(*churn.gen[next_gen]).ok();
        swap.end_ns = NowNs();
        swaps.push_back(swap);
        if (swap.ok) next_gen = 1 - next_gen;
      }
    });
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto k = static_cast<size_t>(c);
        const size_t offset = k * mix.sequence.size() / kClients;
        SleepUntil(start);
        if (open) {
          OpenLoop(*clients[k], mix, offset + 7919,
                   start + c * period / kClients, period, end, traced,
                   &logs[k]);
        } else if (k == 0) {
          ClosedLoop(*clients[k], mix, offset, end, &logs[k]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    admin.join();
  };
  const int64_t t0 = NowNs() + 20'000'000;
  run_phase(false, t0,
            t0 + static_cast<int64_t>(seconds * kClosedShare * 1e9));
  // The open loop starts with the closed loop's capture already written,
  // so its latencies carry none of that backlog.
  service.audit_exporter()->Flush();
  const int64_t t2 = NowNs() + 20'000'000;
  run_phase(true, t2,
            t2 + static_cast<int64_t>(seconds * (1 - kClosedShare) * 1e9));
  const RegistryCounts after = ReadRegistry(service);
  if (rss_after != nullptr) *rss_after = RssBytes();
  for (auto& client : clients) client->Close();
  const sentinel::net::ServerStats net = server.stats();
  server.Stop();
  const sentinel::ServiceStats service_stats = service.Stats();
  if (traced) {
    RegistryLayerMetrics(service, before, after,
                         static_cast<double>(net.requests), result);
  }
  service.Shutdown();

  // ---- Correctness: generations, flips, audit. ----
  std::vector<const Sample*> samples;
  std::vector<double> rtt, lateness;
  int64_t closed_end = t0;
  for (ClientLog& log : logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    if (!log.error.empty()) {
      std::fprintf(stderr, "wire client error: %s\n", log.error.c_str());
    }
    for (const Sample& s : log.closed) {
      samples.push_back(&s);
      closed_end = std::max(closed_end, s.recv_ns);
    }
    for (const Sample& s : log.open) {
      samples.push_back(&s);
      rtt.push_back(static_cast<double>(s.recv_ns - s.sched_ns));
      lateness.push_back(static_cast<double>(s.send_ns - s.sched_ns) / 1e3);
    }
    stats.closed_verdicts += log.closed.size();
  }
  for (const SwapRecord& swap : swaps) {
    ++result->attempted;
    if (!swap.ok) ++result->failed;
    stats.swaps_ms.push_back(
        static_cast<double>(swap.end_ns - swap.start_ns) / 1e6);
  }
  stats.flips_checked = CheckGenerations(samples, mix, swaps, result);
  if (auto* exporter = service.audit_exporter()) {
    const uint64_t expected = service_stats.decisions +
                              service_stats.fastpath_hits +
                              service_stats.policy_swaps;
    CheckAudit(audit_path, exporter->counters(), expected, result);
    if (traced) {
      const auto counters = exporter->counters();
      result->Layer("audit.records", static_cast<double>(counters.records),
                    "count");
      result->Layer("audit.bytes_per_record",
                    counters.records > 0
                        ? static_cast<double>(counters.bytes) /
                              static_cast<double>(counters.records)
                        : 0,
                    "bytes");
      result->Layer("audit.drops", static_cast<double>(counters.drops),
                    "count");
    }
  } else {
    result->Fail("audit exporter missing");
  }
  std::filesystem::remove(audit_path);

  // ---- Metrics. ----
  // Closed-loop throughput per 50 ms slice after the warm-up (the last,
  // partial slice dropped); medians keep one slow slice from moving it.
  const int64_t timed_from = t0 + kWarmupNs;
  const size_t slices =
      closed_end > timed_from
          ? static_cast<size_t>((closed_end - timed_from) / kSliceNs)
          : 0;
  if (slices >= 10) {
    std::vector<double> per_slice(slices, 0);
    for (const ClientLog& log : logs) {
      for (const Sample& s : log.closed) {
        if (s.recv_ns < timed_from) continue;
        const auto k =
            static_cast<size_t>((s.recv_ns - timed_from) / kSliceNs);
        if (k < slices) per_slice[k] += 1e9 / kSliceNs;
      }
    }
    stats.ops_per_s = Median(per_slice);
    stats.tail_ops_per_s = Median(std::vector<double>(
        per_slice.end() - static_cast<long>(slices / 10), per_slice.end()));
  } else {
    result->Fail("closed loop ran fewer than 10 slices");
  }
  stats.rtt = Summarize(rtt);
  stats.lateness_p50_us = Median(lateness);
  stats.lateness_max_us =
      lateness.empty() ? 0 : *std::max_element(lateness.begin(), lateness.end());

  if (traced) {
    SpanLog spans;
    std::vector<double> reactor;
    for (ClientLog& log : logs) {
      for (const Sample& s : log.open) {
        reactor.push_back(static_cast<double>(s.recv_ns - s.send_ns) / 1e3 -
                          static_cast<double>(s.decision_us));
      }
      spans.Absorb(std::move(log.spans));
    }
    result->Layer("net.reactor_us_p50", Summarize(reactor).p50, "us");
    result->Layer("net.requests_per_batch",
                  net.batches > 0 ? static_cast<double>(net.requests) /
                                        static_cast<double>(net.batches)
                                  : 0,
                  "count");
    result->Layer("net.bytes_per_verdict",
                  net.decisions > 0
                      ? static_cast<double>(net.bytes_in + net.bytes_out) /
                            static_cast<double>(net.decisions)
                      : 0,
                  "bytes");
    result->Layer("trace.spans", static_cast<double>(spans.spans().size()),
                  "count");
    const std::string path = options.out_dir + "/spans-wire-churn-" +
                             std::to_string(options.seed) + ".csv";
    if (!spans.WriteCsv(path)) result->Fail("cannot write " + path);
  }
  return stats;
}

/// Mean ns per call of `fn` over `count` calls, median of five passes.
template <typename Fn>
double CodecNs(size_t count, Fn&& fn) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < count; ++i) fn(i);
    passes.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(count));
  }
  return Median(passes);
}

/// Times the wire codec on the workload's own request frames.
void CodecLayerMetrics(const KeyMix& mix, RunResult* result) {
  const size_t count = std::min<size_t>(mix.sequence.size(), 100000);
  std::string out;
  result->Layer("wire.encode_ns", CodecNs(count, [&](size_t i) {
                  out.clear();
                  (void)sentinel::wire::EncodeCheckRequest(
                      i, mix.keys[mix.sequence[i]].request, &out);
                }),
                "ns");
  std::vector<std::string> frames(count);
  for (size_t i = 0; i < count; ++i) {
    (void)sentinel::wire::EncodeCheckRequest(
        i, mix.keys[mix.sequence[i]].request, &frames[i]);
  }
  uint64_t bad = 0;
  sentinel::wire::CheckRequestMsg msg;
  result->Layer(
      "wire.decode_ns", CodecNs(count, [&](size_t i) {
        sentinel::wire::FrameView frame;
        sentinel::wire::ProtocolError error;
        const std::string_view body =
            std::string_view(frames[i]).substr(
                sentinel::wire::kLengthPrefixBytes);
        if (!sentinel::wire::DecodeFrame(body, &frame, &error) ||
            !sentinel::wire::DecodeCheckRequest(frame, &msg, &error)) {
          ++bad;
        }
      }),
      "ns");
  if (bad > 0) result->Fail("wire frames failed to decode");
}

}  // namespace

RunResult RunWireChurn(const Options& options) {
  RunResult result;
  const Sizes sizes = SizesFor(options);
  const Inputs inputs = MakeInputs(sizes);

  // ---- Oracle: verdicts of every key under both generations. ----
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
  KeyMix mix;
  mix.keys = MakeCheckKeys(plan, oracle, sizes.keys, options.seed);
  const size_t plain_keys = mix.keys.size();
  std::vector<CheckKey> churn_keys = MakeChurnKeys(plan);
  mix.keys.insert(mix.keys.end(), churn_keys.begin(), churn_keys.end());
  FillVerdicts(oracle, 0, &mix.keys);
  if (!oracle.ApplyPolicyUpdate(*churn.gen[1]).ok()) {
    result.Fail("oracle refused the churn generation");
    return result;
  }
  FillVerdicts(oracle, 1, &mix.keys);
  // Toggled draws: every flipping churn key plus as many non-flipping ones.
  std::vector<uint32_t> toggled;
  size_t flipping = 0;
  for (size_t i = plain_keys; i < mix.keys.size(); ++i) {
    if (mix.keys[i].allow[0] != mix.keys[i].allow[1]) {
      toggled.push_back(static_cast<uint32_t>(i));
      ++flipping;
    }
  }
  for (size_t i = plain_keys; i < mix.keys.size() && toggled.size() < 2 * flipping;
       ++i) {
    if (mix.keys[i].allow[0] == mix.keys[i].allow[1]) {
      toggled.push_back(static_cast<uint32_t>(i));
    }
  }
  if (flipping == 0) {
    result.Fail("the churn toggle flips no warm session's verdict");
    return result;
  }
  mix.sequence = ZipfSequence(plain_keys, kSequenceLength, 0.99, options.seed);
  sentinel::Rng rng(options.seed ^ 0x5bd1e995u);
  for (uint32_t& k : mix.sequence) {
    if (rng.NextBool(kToggledShare)) k = toggled[rng.NextBounded(toggled.size())];
  }
  std::printf("wire-churn: users=%zu keys=%zu churn_role=%s flipping=%zu "
              "offered_rate=%.0f swap_period_ms=%lld clients=%d batch=%zu\n",
              plan.size(), mix.keys.size(), churn.role.c_str(), flipping,
              kOfferedRate, static_cast<long long>(kSwapPeriodNs / 1000000),
              kClients, kBatch);

  std::filesystem::create_directories(options.out_dir);
  const double seconds = options.short_mode ? 6.0 : options.seconds;

  if (!options.trace) {
    int64_t rss_before = 0, rss_after = 0;
    const PassStats pass =
        RunPass(options, inputs, plan, warm_want, churn, mix, seconds, false,
                &rss_before, &rss_after, &result);
    std::vector<double> setups = {pass.setup_s};
    // The same audited configuration as the measured pass.
    sentinel::ServiceConfig config = BaseServiceConfig();
    config.audit_path = options.out_dir + "/audit-" +
                        std::to_string(getpid()) + "-setup.jsonl";
    while (setups.size() < kSetups && result.correct) {
      Deployment extra = Deploy(inputs, config, &plan, &result);
      if (!extra.service) return result;
      CheckWarm(extra.warm_verdicts, warm_want, &result);
      setups.push_back(extra.setup_s);
    }
    std::filesystem::remove(config.audit_path);
    result.E2e("setup_s", Median(setups), "s");
    result.E2e("service_rss_mb",
               static_cast<double>(rss_after - rss_before) / (1 << 20), "MiB");
    result.E2e("ops_per_s", pass.ops_per_s, "1/s");
    result.E2e("tail_ops_per_s", pass.tail_ops_per_s, "1/s");
    result.E2e("op_p50_ns", pass.rtt.p50, "ns");
    result.E2e("op_p99_ns", pass.rtt.p99, "ns");
    result.E2e("swap_p50_ms", Median(pass.swaps_ms), "ms");
    std::printf("wire-churn: closed_verdicts=%zu open_samples=%zu swaps=%zu "
                "flips_checked=%zu lateness_p50_us=%.1f lateness_max_us=%.1f "
                "setups=%zu\n",
                pass.closed_verdicts, pass.rtt.count, pass.swaps_ms.size(),
                pass.flips_checked, pass.lateness_p50_us, pass.lateness_max_us,
                setups.size());
    return result;
  }

  const PassStats untraced =
      RunPass(options, inputs, plan, warm_want, churn, mix, seconds / 2, false,
              nullptr, nullptr, &result);
  const PassStats traced =
      RunPass(options, inputs, plan, warm_want, churn, mix, seconds / 2, true,
              nullptr, nullptr, &result);
  CodecLayerMetrics(mix, &result);
  sentinel::SimulatedClock engine_clock(StartTime());
  (void)CoreLayerMetrics(inputs, churn, &engine_clock, &result);
  result.Layer("trace.overhead_pct",
               traced.rtt.p50 > 0 ? (traced.rtt.p50 / untraced.rtt.p50 - 1) * 100
                                  : 0,
               "%");
  std::printf("wire-churn traced: ops_per_s untraced=%.1f traced=%.1f "
              "rtt_p50_ns untraced=%.1f traced=%.1f\n",
              untraced.ops_per_s, traced.ops_per_s, untraced.rtt.p50,
              traced.rtt.p50);
  return result;
}

}  // namespace perfbench
