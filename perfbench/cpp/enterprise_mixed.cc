// enterprise-mixed: the admin and temporal plane. The scenario's whole
// request stream — session create/delete, role activations under SSD, DSD,
// shift, duration and context constraints, checks with ~5% invalid
// references, user-role admin broadcasts, role enable/disable, SetContext
// and AdvanceBy across shift boundaries — is replayed in order by one
// caller thread through a fresh service, once per round. Its last tenth is
// reported on its own, so cost that grows with history shows.

#include <algorithm>
#include <cstdio>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sentinel::AccessOutcome;
using sentinel::Request;
using sentinel::RequestKind;

constexpr int kSwaps = 4;  // Per round; even, so each round ends at gen 0.
constexpr int kKinds = static_cast<int>(RequestKind::kSetContext) + 1;
constexpr int kSetups = 5;
constexpr size_t kMinRounds = 3;  // So each operation's median has a middle.
constexpr const char* kProbeSession = "bench-probe";

/// Folds an AdminResult into (decided, verdict).
bool Admin(const sentinel::AdminResult& admin, bool* decided) {
  *decided = admin.outcome == AccessOutcome::kDecided;
  return admin.ok();
}

/// Applies one stream request to the service. `*decided` is false when the
/// operation got no policy verdict (overload, shutdown, failed advance).
bool ApplyToService(sentinel::AuthorizationService& service,
                    const Request& r, bool* decided) {
  switch (r.kind) {
    case RequestKind::kCreateSession:
      return Admin(service.CreateSession(r.user, r.session), decided);
    case RequestKind::kDeleteSession:
      return Admin(service.DeleteSession(r.session), decided);
    case RequestKind::kAddActiveRole:
      return Admin(service.AddActiveRole(r.user, r.session, r.role), decided);
    case RequestKind::kDropActiveRole:
      return Admin(service.DropActiveRole(r.user, r.session, r.role),
                   decided);
    case RequestKind::kCheckAccess: {
      sentinel::AccessRequest access;
      access.session = r.session;
      access.operation = r.operation;
      access.object = r.object;
      access.purpose = r.purpose;
      const sentinel::AccessDecision d = service.CheckAccess(access);
      *decided = d.outcome == AccessOutcome::kDecided;
      return d.allowed;
    }
    case RequestKind::kAssignUser:
      return Admin(service.AssignUser(r.user, r.role), decided);
    case RequestKind::kDeassignUser:
      return Admin(service.DeassignUser(r.user, r.role), decided);
    case RequestKind::kEnableRole:
      return Admin(service.EnableRole(r.role), decided);
    case RequestKind::kDisableRole:
      return Admin(service.DisableRole(r.role), decided);
    case RequestKind::kAdvanceTime:
      *decided = service.AdvanceBy(r.advance).ok();
      return true;
    case RequestKind::kSetContext:
      service.SetContext(r.context_key, r.context_value);
      *decided = true;
      return true;
  }
  *decided = false;
  return false;
}

/// Span name of the layer a stream request enters.
const char* LayerOf(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCheckAccess:
      return "service.check";
    case RequestKind::kCreateSession:
    case RequestKind::kDeleteSession:
    case RequestKind::kAddActiveRole:
    case RequestKind::kDropActiveRole:
      return "service.session_op";
    case RequestKind::kAdvanceTime:
      return "gtrbac.advance";
    default:
      return "service.broadcast";
  }
}

struct Round {
  double ops_per_s = 0;
  double tail_ops_per_s = 0;
  double head_ops_per_s = 0;  // First tenth, for the growth ratio.
  std::vector<double> latency_ns;  // One per stream operation, in order.
  std::vector<double> swaps_ms;
  double setup_s = 0;
  double seconds = 0;
};

/// What the oracle says for one run: every stream verdict, then the probe
/// session's create + activate verdicts and its verdict after each swap.
struct Expected {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> probe_setup;
  std::vector<uint8_t> swaps;
};

/// One round: a fresh service, the whole stream, then the swap probe. With
/// `spans` set the round is traced: every operation gets a span and the
/// registry-derived layer metrics are read around the stream.
Round RunRound(const Inputs& inputs, const std::vector<Request>& stream,
               const Expected& want, const Churn& churn,
               const sentinel::AccessRequest& probe, SpanLog* spans,
               int64_t* rss_before, int64_t* rss_after, RunResult* result) {
  Round round;
  if (want.stream.size() != stream.size()) {
    result->Fail("the oracle could not replay the stream");
    return round;
  }
  if (rss_before != nullptr) *rss_before = RssBytes();
  Deployment deployment =
      Deploy(inputs, BaseServiceConfig(), nullptr, result);
  if (!deployment.service) return round;
  round.setup_s = deployment.setup_s;
  sentinel::AuthorizationService& service = *deployment.service;
  RegistryCounts before;
  if (spans != nullptr) before = ReadRegistry(service);
  const size_t n = stream.size();
  const size_t tail_from = n - n / 10;
  std::vector<double> latency(n);
  uint32_t names[kKinds] = {};
  if (spans != nullptr) {
    for (int k = 0; k < kKinds; ++k) {
      names[k] = SpanLog::NameId(LayerOf(static_cast<RequestKind>(k)));
    }
  }
  uint64_t failed = 0;
  size_t first_mismatch = n;
  const int64_t start = NowNs();
  int64_t tail_start = start;
  int64_t head_end = start;
  for (size_t i = 0; i < n; ++i) {
    if (i == n / 10) head_end = NowNs();
    if (i == tail_from) tail_start = NowNs();
    const int64_t op_start = NowNs();
    bool decided = true;
    const bool verdict = ApplyToService(service, stream[i], &decided);
    const int64_t op_end = NowNs();
    latency[i] = static_cast<double>(op_end - op_start);
    if (!decided) {
      ++failed;
    } else if (verdict != (want.stream[i] != 0) && first_mismatch == n) {
      first_mismatch = i;
    }
    if (spans != nullptr) {
      spans->Add(i, names[static_cast<int>(stream[i].kind)], -1, op_start,
                 op_end);
    }
  }
  const int64_t end = NowNs();
  round.seconds = static_cast<double>(end - start) / 1e9;
  round.ops_per_s = static_cast<double>(n) / round.seconds;
  round.tail_ops_per_s = static_cast<double>(n - tail_from) /
                         (static_cast<double>(end - tail_start) / 1e9);
  round.head_ops_per_s = static_cast<double>(n / 10) /
                         (static_cast<double>(head_end - start) / 1e9);
  round.latency_ns = std::move(latency);
  result->attempted += n;
  result->failed += failed;
  if (first_mismatch < n) {
    const Request& r = stream[first_mismatch];
    result->Fail("stream request #" + std::to_string(first_mismatch) + " (" +
                 sentinel::RequestKindToString(r.kind) +
                 ") differs from the oracle's verdict");
  }
  if (rss_after != nullptr) *rss_after = RssBytes();

  // Probe session + swaps, compared with the oracle's end state.
  bool created_decided = true, activated_decided = true;
  const bool created = Admin(
      service.CreateSession(probe.user, probe.session), &created_decided);
  const bool activated =
      Admin(service.AddActiveRole(probe.user, probe.session, churn.role),
            &activated_decided);
  result->attempted += 2;
  result->failed += (created_decided ? 0 : 1) + (activated_decided ? 0 : 1);
  if (want.probe_setup.size() != 2 || created != (want.probe_setup[0] != 0) ||
      activated != (want.probe_setup[1] != 0)) {
    result->Fail("swap probe set-up differs from the oracle's");
  }
  round.swaps_ms =
      SwapProbe(service, churn, probe, want.swaps, kSwaps, result);
  if (spans != nullptr) {
    RegistryLayerMetrics(service, before, ReadRegistry(service),
                         static_cast<double>(n), result);
  }
  return round;
}

/// The oracle's verdicts for one stream: a fresh DirectEnforcer replays
/// the stream, then the probe's set-up and swaps.
Expected ComputeExpected(const std::shared_ptr<const sentinel::Policy>& base,
                         const std::vector<Request>& stream,
                         const Churn& churn,
                         const sentinel::AccessRequest& probe) {
  Expected want;
  sentinel::SimulatedClock clock(StartTime());
  sentinel::DirectEnforcer oracle(&clock);
  if (!oracle.LoadPolicy(*base).ok()) return want;
  want.stream.reserve(stream.size());
  for (const Request& r : stream) {
    want.stream.push_back(sentinel::ApplyRequest(oracle, r).allowed);
  }
  want.probe_setup.push_back(
      oracle.CreateSession(probe.user, probe.session).allowed);
  want.probe_setup.push_back(
      oracle.AddActiveRole(probe.user, probe.session, churn.role).allowed);
  want.swaps = SwapProbeOracle(oracle, churn, probe, kSwaps);
  return want;
}

}  // namespace

RunResult RunEnterpriseMixed(const Options& options) {
  RunResult result;
  const Sizes sizes = SizesFor(options);
  const Inputs inputs = MakeInputs(sizes);

  auto parsed = sentinel::PolicyParser::Parse(inputs.policy_text);
  if (!parsed.ok()) {
    result.Fail("policy parse failed");
    return result;
  }
  auto base = std::make_shared<const sentinel::Policy>(std::move(*parsed));
  // The churn role is the probe user's first assignment in the base policy:
  // the probe activates it after the stream, so each swap can flip the
  // probe's verdict unless the stream revoked or disabled the role.
  const auto& first_user = *base->users().begin();
  Churn churn;
  churn.role = first_user.second.assignments.empty()
                   ? base->roles().begin()->first
                   : *first_user.second.assignments.begin();
  for (const auto& [name, spec] : base->roles()) {
    if (name == churn.role) break;
    ++churn.salt;
  }
  churn.gen[0] = base;
  auto toggled = sentinel::WithToggledPermission(*base, churn.salt);
  churn.gen[1] = toggled.ok() ? std::make_shared<const sentinel::Policy>(
                                    std::move(*toggled))
                              : base;
  sentinel::AccessRequest probe;
  probe.user = first_user.first;
  probe.session = kProbeSession;
  probe.operation = kChurnOperation;
  probe.object = kChurnObject;

  const std::vector<Request>& stream = inputs.scenario.requests;
  const Expected want = ComputeExpected(base, stream, churn, probe);
  size_t counts[kKinds] = {};
  for (const Request& r : stream) ++counts[static_cast<int>(r.kind)];
  std::printf(
      "enterprise-mixed: roles=%d users=%zu requests=%zu checks=%zu "
      "advances=%zu broadcasts=%zu set_context=%zu\n",
      inputs.scenario.num_roles, base->users().size(), stream.size(),
      counts[static_cast<int>(RequestKind::kCheckAccess)],
      counts[static_cast<int>(RequestKind::kAdvanceTime)],
      counts[static_cast<int>(RequestKind::kAssignUser)] +
          counts[static_cast<int>(RequestKind::kDeassignUser)] +
          counts[static_cast<int>(RequestKind::kEnableRole)] +
          counts[static_cast<int>(RequestKind::kDisableRole)],
      counts[static_cast<int>(RequestKind::kSetContext)]);

  const double seconds = options.short_mode ? 1.0 : options.seconds;

  if (!options.trace) {
    std::vector<Round> rounds;
    int64_t rss_before = 0, rss_after = 0;
    double measured = 0;
    while (rounds.size() < kMinRounds || measured < seconds) {
      const bool first = rounds.empty();
      rounds.push_back(RunRound(inputs, stream, want, churn, probe, nullptr,
                                first ? &rss_before : nullptr,
                                first ? &rss_after : nullptr, &result));
      measured += rounds.back().seconds;
      if (!result.correct || rounds.back().seconds == 0) break;
    }
    std::vector<double> setups, swaps;
    for (const Round& round : rounds) {
      setups.push_back(round.setup_s);
      swaps.insert(swaps.end(), round.swaps_ms.begin(), round.swaps_ms.end());
    }
    // Every round replays the same stream on a fresh service, so operation
    // i does the same work in each. Its time is the median over rounds; a
    // round the host slowed for a moment then moves no figure. The stream's
    // rates and percentiles are taken over these per-operation medians.
    const size_t n = stream.size();
    std::vector<double> typical(n, 0);
    if (result.correct) {
      std::vector<double> across(rounds.size());
      for (size_t i = 0; i < n; ++i) {
        for (size_t r = 0; r < rounds.size(); ++r) {
          across[r] = rounds[r].latency_ns[i];
        }
        typical[i] = Median(across);
      }
    }
    auto rate = [&typical](size_t from, size_t to) {
      double ns = 0;
      for (size_t i = from; i < to; ++i) ns += typical[i];
      return ns > 0 ? static_cast<double>(to - from) / (ns / 1e9) : 0;
    };
    const double ops_per_s = rate(0, n);
    const double head_ops_per_s = rate(0, n / 10);
    const double tail_ops_per_s = rate(n - n / 10, n);
    const Percentiles latency = Summarize(typical);
    while (setups.size() < kSetups && result.correct) {
      Deployment extra = Deploy(inputs, BaseServiceConfig(), nullptr, &result);
      if (!extra.service) return result;
      setups.push_back(extra.setup_s);
    }
    result.E2e("setup_s", Median(setups), "s");
    result.E2e("service_rss_mb",
               static_cast<double>(rss_after - rss_before) / (1 << 20), "MiB");
    result.E2e("ops_per_s", ops_per_s, "1/s");
    result.E2e("tail_ops_per_s", tail_ops_per_s, "1/s");
    result.E2e("op_p50_ns", latency.p50, "ns");
    result.E2e("op_p99_ns", latency.p99, "ns");
    result.E2e("swap_p50_ms", Median(swaps), "ms");
    std::printf("enterprise-mixed: rounds=%zu latency_samples_per_round=%zu "
                "first_tenth_ops_per_s=%.1f last_tenth_ops_per_s=%.1f "
                "swaps=%zu setups=%zu\n",
                rounds.size(), static_cast<size_t>(sizes.requests),
                head_ops_per_s, tail_ops_per_s,
                swaps.size(), setups.size());
    return result;
  }

  // ---- Traced run: one untraced round, one traced round, bare layers. ----
  const Round untraced = RunRound(inputs, stream, want, churn, probe, nullptr,
                                  nullptr, nullptr, &result);
  SpanLog spans;
  const Round traced = RunRound(inputs, stream, want, churn, probe, &spans,
                                nullptr, nullptr, &result);
  auto p50_us = [&spans](const char* name) {
    std::vector<double> d = spans.Durations(SpanLog::NameId(name));
    return Summarize(d).p50 / 1e3;
  };
  result.Layer("service.check_us_p50", p50_us("service.check"), "us");
  result.Layer("service.session_op_us_p50", p50_us("service.session_op"),
               "us");
  result.Layer("service.broadcast_us_p50", p50_us("service.broadcast"), "us");
  result.Layer("gtrbac.advance_us_p50", p50_us("gtrbac.advance"), "us");

  // Bare engine: the same stream, no service, no cache.
  sentinel::SimulatedClock engine_clock(StartTime());
  auto engine = CoreLayerMetrics(inputs, churn, &engine_clock, &result);
  const size_t n = stream.size();
  const size_t tail_from = n - n / 10;
  uint64_t mismatches = 0;
  const int64_t start = NowNs();
  int64_t tail_start = start;
  for (size_t i = 0; i < n; ++i) {
    if (i == tail_from) tail_start = NowNs();
    if (sentinel::ApplyRequest(*engine, stream[i]).allowed !=
        (want.stream[i] != 0)) {
      ++mismatches;
    }
  }
  const int64_t end = NowNs();
  if (mismatches > 0) {
    result.Fail("bare engine stream verdicts differ from the oracle's");
  }
  result.Layer("core.engine_ops_per_s",
               static_cast<double>(n) / (static_cast<double>(end - start) / 1e9),
               "1/s");
  result.Layer("core.engine_tail_ops_per_s",
               static_cast<double>(n - tail_from) /
                   (static_cast<double>(end - tail_start) / 1e9),
               "1/s");
  result.Layer("rbac.sessions_live",
               static_cast<double>(engine->rbac().db().session_count()),
               "count");
  result.Layer("trace.overhead_pct",
               traced.ops_per_s > 0
                   ? (untraced.ops_per_s / traced.ops_per_s - 1) * 100
                   : 0,
               "%");
  result.Layer("trace.spans", static_cast<double>(spans.spans().size()),
               "count");
  std::printf("enterprise-mixed traced: ops_per_s untraced=%.1f traced=%.1f "
              "tail untraced=%.1f traced=%.1f\n",
              untraced.ops_per_s, traced.ops_per_s, untraced.tail_ops_per_s,
              traced.tail_ops_per_s);
  const std::string path = options.out_dir + "/spans-enterprise-mixed-" +
                           std::to_string(options.seed) + ".csv";
  if (!spans.WriteCsv(path)) result.Fail("cannot write " + path);
  return result;
}

}  // namespace perfbench
