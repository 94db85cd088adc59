#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "telemetry/metrics.h"

namespace perfbench {

using sentinel::AccessRequest;
using sentinel::AuthorizationService;
using sentinel::DirectEnforcer;
using sentinel::Policy;

sentinel::ServiceConfig BaseServiceConfig() {
  sentinel::ServiceConfig config;
  config.num_shards = kShards;
  config.start_time = StartTime();
  config.decision_cache_capacity = kCacheSlots;
  config.decision_cache_fastpath = true;
  return config;
}

sentinel::Time StartTime() { return sentinel::MakeTime(2026, 7, 6, 9, 0, 0); }

Sizes SizesFor(const Options& options) {
  Sizes sizes;
  if (options.short_mode) {
    sizes.users = 200;
    sizes.depth = 4;
    sizes.requests = 3000;
    sizes.keys = 2048;
  } else {
    sizes.users = 2000;
    sizes.depth = sentinel::EnterpriseScenarioParams().depth;
    sizes.requests = 20000;
    sizes.keys = 65536;
  }
  return sizes;
}

Inputs MakeInputs(const Sizes& sizes) {
  sentinel::ScenarioParams params = sentinel::EnterpriseScenarioParams();
  params.num_users = sizes.users;
  params.depth = sizes.depth;
  params.num_requests = sizes.requests;
  // Global-scope constraints are enforced per shard by design, so they have
  // no single-engine oracle; the scenario draws none.
  params.cardinality_frac = 0.0;
  Inputs inputs;
  inputs.scenario = sentinel::GenerateScenario(params);
  inputs.policy_text = sentinel::PolicyToText(inputs.scenario.policy);
  return inputs;
}

std::vector<WarmSession> WarmPlan(const Policy& policy) {
  std::vector<WarmSession> plan;
  plan.reserve(policy.users().size());
  for (const auto& [name, spec] : policy.users()) {
    WarmSession warm;
    warm.user = name;
    warm.session = "w-" + name;
    warm.roles.assign(spec.assignments.begin(), spec.assignments.end());
    plan.push_back(std::move(warm));
  }
  return plan;
}

namespace {

/// Folds a service mutator result into a verdict, counting operations that
/// got none.
uint8_t AdminVerdict(const sentinel::AdminResult& admin, RunResult* result) {
  ++result->attempted;
  if (admin.outcome != sentinel::AccessOutcome::kDecided) {
    ++result->failed;
    return 0;
  }
  return admin.ok() ? 1 : 0;
}

}  // namespace

Deployment Deploy(const Inputs& inputs, sentinel::ServiceConfig config,
                  const std::vector<WarmSession>* warm, RunResult* result) {
  Deployment out;
  const int64_t start = NowNs();
  auto created = AuthorizationService::Create(config);
  if (!created.ok()) {
    result->Fail("service config rejected: " +
                 std::string(created.status().message()));
    return out;
  }
  auto parsed = sentinel::PolicyParser::Parse(inputs.policy_text);
  if (!parsed.ok()) {
    result->Fail("policy parse failed: " +
                 std::string(parsed.status().message()));
    return out;
  }
  const sentinel::Status loaded = (*created)->LoadPolicy(*parsed);
  if (!loaded.ok()) {
    result->Fail("LoadPolicy failed: " + std::string(loaded.message()));
    return out;
  }
  AuthorizationService& service = **created;
  if (warm != nullptr) {
    out.warm_verdicts.reserve(warm->size() * 4);
    for (const WarmSession& session : *warm) {
      out.warm_verdicts.push_back(AdminVerdict(
          service.CreateSession(session.user, session.session), result));
      for (const auto& role : session.roles) {
        out.warm_verdicts.push_back(AdminVerdict(
            service.AddActiveRole(session.user, session.session, role),
            result));
      }
    }
  }
  out.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  out.service = std::move(*created);
  return out;
}

std::vector<uint8_t> WarmOracle(DirectEnforcer& oracle,
                                const std::vector<WarmSession>& plan) {
  std::vector<uint8_t> verdicts;
  for (const WarmSession& session : plan) {
    verdicts.push_back(
        oracle.CreateSession(session.user, session.session).allowed);
    for (const auto& role : session.roles) {
      verdicts.push_back(
          oracle.AddActiveRole(session.user, session.session, role).allowed);
    }
  }
  return verdicts;
}

void WarmEngine(sentinel::AuthorizationEngine& engine,
                const std::vector<WarmSession>& plan) {
  for (const WarmSession& session : plan) {
    (void)engine.CreateSession(session.user, session.session);
    for (const auto& role : session.roles) {
      (void)engine.AddActiveRole(session.user, session.session, role);
    }
  }
}

void CheckWarm(const std::vector<uint8_t>& got,
               const std::vector<uint8_t>& want, RunResult* result) {
  if (got.size() != want.size()) {
    result->Fail("warm-up verdict count differs from the oracle's");
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      result->Fail("warm-up verdict #" + std::to_string(i) +
                   " differs from the oracle's");
      return;
    }
  }
}

Churn MakeChurn(std::shared_ptr<const Policy> base,
                const DirectEnforcer& warmed_oracle,
                const std::vector<WarmSession>& plan) {
  std::map<sentinel::RoleName, int> active;
  for (const WarmSession& session : plan) {
    for (const auto& role : warmed_oracle.rbac().SessionRoles(session.session)) {
      ++active[role];
    }
  }
  Churn churn;
  int best = -1;
  for (const auto& [role, count] : active) {
    if (count > best) {
      best = count;
      churn.role = role;
    }
  }
  if (churn.role.empty()) churn.role = base->roles().begin()->first;
  uint64_t index = 0;
  for (const auto& [name, spec] : base->roles()) {
    if (name == churn.role) break;
    ++index;
  }
  churn.salt = index;
  churn.gen[0] = base;
  auto toggled = sentinel::WithToggledPermission(*base, churn.salt);
  churn.gen[1] = toggled.ok()
                     ? std::make_shared<const Policy>(std::move(*toggled))
                     : base;
  return churn;
}

std::vector<CheckKey> MakeCheckKeys(const std::vector<WarmSession>& plan,
                                    DirectEnforcer& oracle, int count,
                                    uint64_t seed) {
  sentinel::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const Policy& policy = oracle.policy();
  std::set<std::string> operations;
  std::set<std::string> objects;
  for (const auto& [name, spec] : policy.roles()) {
    for (const auto& perm : spec.permissions) {
      operations.insert(perm.operation);
      objects.insert(perm.object);
    }
  }
  const std::vector<std::string> ops(operations.begin(), operations.end());
  const std::vector<std::string> objs(objects.begin(), objects.end());
  std::map<size_t, std::vector<sentinel::Permission>> held;
  std::set<std::tuple<size_t, std::string, std::string>> seen;
  std::vector<CheckKey> keys;
  keys.reserve(static_cast<size_t>(count));
  const size_t limit = static_cast<size_t>(count) * 8;
  for (size_t attempt = 0;
       keys.size() < static_cast<size_t>(count) && attempt < limit;
       ++attempt) {
    const size_t s = rng.NextBounded(plan.size());
    std::string op;
    std::string obj;
    // The first half of the keys ask for a permission the session holds.
    if (keys.size() < static_cast<size_t>(count) / 2) {
      auto it = held.find(s);
      if (it == held.end()) {
        const auto perms = oracle.rbac().SessionPermissions(plan[s].session);
        it = held.emplace(s, std::vector<sentinel::Permission>(perms.begin(),
                                                               perms.end()))
                 .first;
      }
      if (!it->second.empty()) {
        const auto& perm = it->second[rng.NextBounded(it->second.size())];
        op = perm.operation;
        obj = perm.object;
      }
    }
    if (op.empty()) {
      op = ops[rng.NextBounded(ops.size())];
      obj = objs[rng.NextBounded(objs.size())];
    }
    if (!seen.emplace(s, op, obj).second) continue;
    CheckKey key;
    key.request.user = plan[s].user;
    key.request.session = plan[s].session;
    key.request.operation = std::move(op);
    key.request.object = std::move(obj);
    keys.push_back(std::move(key));
  }
  return keys;
}

std::vector<CheckKey> MakeChurnKeys(const std::vector<WarmSession>& plan) {
  std::vector<CheckKey> keys;
  for (const WarmSession& session : plan) {
    CheckKey key;
    key.request.user = session.user;
    key.request.session = session.session;
    key.request.operation = kChurnOperation;
    key.request.object = kChurnObject;
    key.toggled = true;
    keys.push_back(std::move(key));
  }
  return keys;
}

void FillVerdicts(DirectEnforcer& oracle, int gen,
                  std::vector<CheckKey>* keys) {
  for (CheckKey& key : *keys) {
    key.allow[gen] = oracle
                         .CheckAccess(key.request.session,
                                      key.request.operation, key.request.object)
                         .allowed;
  }
}

std::vector<uint32_t> ZipfSequence(size_t keys, size_t length, double s,
                                   uint64_t seed) {
  sentinel::Rng rng(seed * 0xbf58476d1ce4e5b9ull + 3);
  std::vector<double> cdf(keys);
  double total = 0;
  for (size_t rank = 0; rank < keys; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf[rank] = total;
  }
  std::vector<uint32_t> by_rank(keys);
  for (size_t i = 0; i < keys; ++i) by_rank[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&by_rank);
  std::vector<uint32_t> out(length);
  for (size_t i = 0; i < length; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out[i] = by_rank[std::min(rank, keys - 1)];
  }
  return out;
}

std::vector<double> SwapProbe(AuthorizationService& service,
                              const Churn& churn, const AccessRequest& probe,
                              const std::vector<uint8_t>& want, int swaps,
                              RunResult* result) {
  std::vector<double> latencies_ms;
  for (int i = 0; i < swaps; ++i) {
    const int gen = (i + 1) % 2;
    ++result->attempted;
    const int64_t start = NowNs();
    const auto applied = service.ApplyPolicyUpdate(*churn.gen[gen]);
    latencies_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (!applied.ok()) {
      ++result->failed;
      continue;
    }
    ++result->attempted;
    const sentinel::AccessDecision decision = service.CheckAccess(probe);
    if (decision.outcome != sentinel::AccessOutcome::kDecided) {
      ++result->failed;
    } else if (static_cast<size_t>(i) >= want.size() ||
               decision.allowed != (want[static_cast<size_t>(i)] != 0)) {
      result->Fail("swap #" + std::to_string(i) +
                   ": probe verdict differs from the oracle's");
    }
  }
  return latencies_ms;
}

std::vector<uint8_t> SwapProbeOracle(DirectEnforcer& oracle,
                                     const Churn& churn,
                                     const AccessRequest& probe, int swaps) {
  std::vector<uint8_t> verdicts;
  for (int i = 0; i < swaps; ++i) {
    (void)oracle.ApplyPolicyUpdate(*churn.gen[(i + 1) % 2]);
    verdicts.push_back(
        oracle.CheckAccess(probe.session, probe.operation, probe.object)
            .allowed);
  }
  return verdicts;
}

RegistryCounts ReadRegistry(AuthorizationService& service) {
  const sentinel::TelemetrySnapshot snapshot = service.Snapshot();
  const auto& metrics = snapshot.metrics;
  auto counter = [&metrics](const char* name) -> uint64_t {
    const auto* found = metrics.FindCounter(name);
    return found == nullptr ? 0 : found->value;
  };
  auto histogram = [&metrics](const char* name, double* sum, double* count) {
    const auto* found = metrics.FindHistogram(name);
    if (found == nullptr) return;
    *sum = static_cast<double>(found->sum);
    *count = static_cast<double>(found->TotalCount());
  };
  RegistryCounts out;
  out.raises = counter("events_raised_total");
  out.occurrences = counter("event_occurrences_total");
  out.firings = counter("rule_firings_total");
  out.else_firings = counter("rule_else_total");
  out.dropped = counter("dropped_firings_total");
  out.fastpath_hits = counter("decision_cache_fastpath_hits_total");
  out.cache_misses = counter("decision_cache_misses_total");
  out.cache_stale = counter("decision_cache_stale_total");
  out.decisions = counter("decisions_total");
  histogram("mailbox_queue_wait_us", &out.mailbox_wait_sum,
            &out.mailbox_wait_count);
  histogram("batch_size", &out.batch_sum, &out.batch_count);
  histogram("policy_swap_build_us", &out.swap_build_sum,
            &out.swap_build_count);
  histogram("policy_swap_commit_us", &out.swap_commit_sum,
            &out.swap_commit_count);
  return out;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RegistryLayerMetrics(AuthorizationService& service,
                          const RegistryCounts& before,
                          const RegistryCounts& after, double ops,
                          RunResult* result) {
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  result->Layer("event.raises_per_op",
                Ratio(delta(before.raises, after.raises), ops), "count/op");
  result->Layer("event.occurrences_per_op",
                Ratio(delta(before.occurrences, after.occurrences), ops),
                "count/op");
  result->Layer("rules.firings_per_op",
                Ratio(delta(before.firings, after.firings), ops), "count/op");
  result->Layer("rules.else_per_op",
                Ratio(delta(before.else_firings, after.else_firings), ops),
                "count/op");
  result->Layer("rules.dropped_firings", static_cast<double>(after.dropped),
                "count");
  result->Layer("service.fastpath_hits",
                delta(before.fastpath_hits, after.fastpath_hits), "count");
  result->Layer("service.cache_misses",
                delta(before.cache_misses, after.cache_misses), "count");
  result->Layer("service.cache_stale",
                delta(before.cache_stale, after.cache_stale), "count");
  result->Layer("service.mailbox_wait_us_mean",
                Ratio(after.mailbox_wait_sum - before.mailbox_wait_sum,
                      after.mailbox_wait_count - before.mailbox_wait_count),
                "us");
  result->Layer("service.batch_size_mean",
                Ratio(after.batch_sum - before.batch_sum,
                      after.batch_count - before.batch_count),
                "count");
  result->Layer("service.swap_build_ms_mean",
                Ratio(after.swap_build_sum, after.swap_build_count) / 1e3,
                "ms");
  result->Layer("service.swap_commit_us_mean",
                Ratio(after.swap_commit_sum, after.swap_commit_count), "us");
  const int64_t start = NowNs();
  const std::string body = service.RenderMetrics();
  result->Layer("telemetry.render_us",
                static_cast<double>(NowNs() - start) / 1e3, "us");
  if (body.empty()) result->Fail("RenderMetrics returned an empty body");
}

std::unique_ptr<sentinel::AuthorizationEngine> CoreLayerMetrics(
    const Inputs& inputs, const Churn& churn, sentinel::SimulatedClock* clock,
    RunResult* result) {
  int64_t start = NowNs();
  auto parsed = sentinel::PolicyParser::Parse(inputs.policy_text);
  result->Layer("core.parse_ms", static_cast<double>(NowNs() - start) / 1e6,
                "ms");
  auto engine = std::make_unique<sentinel::AuthorizationEngine>(clock);
  if (!parsed.ok()) {
    result->Fail("policy parse failed on the bare engine");
    return engine;
  }
  start = NowNs();
  const sentinel::Status loaded = engine->LoadPolicy(*parsed);
  result->Layer("core.load_ms", static_cast<double>(NowNs() - start) / 1e6,
                "ms");
  if (!loaded.ok()) result->Fail("bare engine LoadPolicy failed");
  result->Layer("core.rules_generated",
                static_cast<double>(engine->rule_manager().rule_count()),
                "count");
  // Median of three prepares of the one-permission churn diff.
  std::vector<double> prepares;
  for (int i = 0; i < 3; ++i) {
    start = NowNs();
    auto plan = sentinel::AuthorizationEngine::PreparePolicyUpdate(
        churn.gen[0], *churn.gen[1]);
    prepares.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (!plan.ok()) result->Fail("PreparePolicyUpdate refused the churn pair");
  }
  result->Layer("core.prepare_update_ms", Median(prepares), "ms");
  return engine;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.parse_ms", "ms"},
      {"core.load_ms", "ms"},
      {"core.rules_generated", "count"},
      {"core.engine_check_ns_p50", "ns"},
      {"core.engine_ops_per_s", "1/s"},
      {"core.engine_tail_ops_per_s", "1/s"},
      {"core.prepare_update_ms", "ms"},
      {"rbac.check_ns_p50", "ns"},
      {"rbac.sessions_live", "count"},
      {"event.raises_per_op", "count/op"},
      {"event.occurrences_per_op", "count/op"},
      {"rules.firings_per_op", "count/op"},
      {"rules.else_per_op", "count/op"},
      {"rules.dropped_firings", "count"},
      {"gtrbac.advance_us_p50", "us"},
      {"service.check_us_p50", "us"},
      {"service.session_op_us_p50", "us"},
      {"service.broadcast_us_p50", "us"},
      {"service.fastpath_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.cache_stale", "count"},
      {"service.mailbox_wait_us_mean", "us"},
      {"service.batch_size_mean", "count"},
      {"service.swap_build_ms_mean", "ms"},
      {"service.swap_commit_us_mean", "us"},
      {"wire.encode_ns", "ns"},
      {"wire.decode_ns", "ns"},
      {"net.requests_per_batch", "count"},
      {"net.bytes_per_verdict", "bytes"},
      {"net.reactor_us_p50", "us"},
      {"audit.records", "count"},
      {"audit.bytes_per_record", "bytes"},
      {"audit.drops", "count"},
      {"telemetry.render_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return names;
}

}  // namespace perfbench
