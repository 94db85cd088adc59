#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "baseline/direct_enforcer.h"
#include "core/engine.h"
#include "service/authorization_service.h"
#include "service/policer.h"
#include "tests/test_util.h"
#include "workload/policy_gen.h"
#include "workload/request_gen.h"
#include "workload/scenario_gen.h"

namespace sentinel {

/// Seed for the randomized cached-service harness. Set by main() from
/// --seed=N (replay) or std::random_device (fresh exploration); always
/// printed so any failure is reproducible.
uint64_t g_harness_seed = 1;

namespace {

/// THE reproduction's correctness anchor: for random policies and random
/// request streams, the OWTE-rule engine and the hand-coded DirectEnforcer
/// must produce identical decision sequences and identical end states. If
/// this holds across seeds and policy shapes, the rule synthesis (the
/// paper's contribution) is faithful to the specification it was compiled
/// from.
struct DiffCase {
  uint64_t policy_seed;
  uint64_t request_seed;
  PolicyGenParams policy_params;
  RequestGenParams request_params;
  const char* label;
};

std::string StateFingerprint(const RbacSystem& rbac,
                             const RoleStateTable& state) {
  std::string out;
  for (const SessionId& session : rbac.db().SessionIds()) {
    auto info = rbac.db().GetSession(session);
    if (!info.ok()) continue;
    out += session + "/" + (*info)->user + ":";
    for (const RoleName& role : (*info)->active_roles) out += role + ",";
    out += ";";
  }
  out += "|UA:";
  for (const UserName& user : rbac.db().users()) {
    out += user + "=";
    for (const RoleName& role : rbac.db().AssignedRoles(user)) {
      out += role + ",";
    }
    out += ";";
  }
  out += "|disabled:";
  for (const RoleName& role : state.DisabledRoles()) out += role + ",";
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialTest, EngineMatchesDirectEnforcer) {
  const DiffCase& test_case = GetParam();

  PolicyGenParams policy_params = test_case.policy_params;
  policy_params.seed = test_case.policy_seed;
  const Policy policy = GeneratePolicy(policy_params);
  ASSERT_TRUE(policy.Validate().ok());

  RequestGenParams request_params = test_case.request_params;
  request_params.seed = test_case.request_seed;
  RequestGenerator generator(policy, request_params);
  const std::vector<Request> requests = generator.Generate();
  ASSERT_GT(requests.size(), 0u);

  SimulatedClock engine_clock(testutil::Noon());
  AuthorizationEngine engine(&engine_clock);
  ASSERT_TRUE(engine.LoadPolicy(policy).ok());

  SimulatedClock baseline_clock(testutil::Noon());
  DirectEnforcer baseline(&baseline_clock);
  ASSERT_TRUE(baseline.LoadPolicy(policy).ok());

  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const Decision engine_decision = ApplyRequest(engine, request);
    const Decision baseline_decision = ApplyRequest(baseline, request);
    ASSERT_EQ(engine_decision.allowed, baseline_decision.allowed)
        << "request #" << i << " " << RequestKindToString(request.kind)
        << " user=" << request.user << " session=" << request.session
        << " role=" << request.role << " op=" << request.operation
        << " obj=" << request.object
        << "\n  engine: rule=" << engine_decision.rule
        << " reason=" << engine_decision.reason
        << "\n  baseline: rule=" << baseline_decision.rule
        << " reason=" << baseline_decision.reason;
    if (!engine_decision.allowed) {
      ASSERT_EQ(engine_decision.reason, baseline_decision.reason)
          << "request #" << i << " " << RequestKindToString(request.kind);
    }
  }

  // End states coincide exactly.
  EXPECT_EQ(StateFingerprint(engine.rbac(), engine.role_state()),
            StateFingerprint(baseline.rbac(), baseline.role_state()));
  EXPECT_EQ(engine.Now(), baseline.Now());
}

PolicyGenParams PlainParams() {
  PolicyGenParams params;
  params.num_roles = 25;
  params.num_users = 40;
  return params;
}

PolicyGenParams RichParams() {
  PolicyGenParams params;
  params.num_roles = 30;
  params.num_users = 50;
  params.hierarchy_prob = 0.7;
  params.ssd_sets = 3;
  params.dsd_sets = 3;
  params.cardinality_frac = 0.3;
  params.duration_frac = 0.25;
  params.user_cap_frac = 0.3;
  params.prereq_frac = 0.2;
  return params;
}

PolicyGenParams TemporalParams() {
  PolicyGenParams params;
  params.num_roles = 20;
  params.num_users = 30;
  params.duration_frac = 0.4;
  params.shift_frac = 0.4;
  return params;
}

PolicyGenParams ContextParams() {
  PolicyGenParams params;
  params.num_roles = 20;
  params.num_users = 30;
  params.context_frac = 0.5;
  params.duration_frac = 0.2;
  return params;
}

PolicyGenParams EverythingParams() {
  PolicyGenParams params;
  params.num_roles = 35;
  params.num_users = 50;
  params.hierarchy_prob = 0.6;
  params.ssd_sets = 3;
  params.dsd_sets = 3;
  params.cardinality_frac = 0.25;
  params.duration_frac = 0.25;
  params.shift_frac = 0.25;
  params.context_frac = 0.25;
  params.user_cap_frac = 0.25;
  params.prereq_frac = 0.25;
  return params;
}

RequestGenParams ShortStream() {
  RequestGenParams params;
  params.num_requests = 800;
  return params;
}

RequestGenParams LongStream() {
  RequestGenParams params;
  params.num_requests = 3000;
  params.max_advance = 6 * kHour + 1;  // Crosses shift boundaries.
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DifferentialTest,
    ::testing::Values(
        DiffCase{1, 101, PlainParams(), ShortStream(), "plain_1"},
        DiffCase{2, 202, PlainParams(), ShortStream(), "plain_2"},
        DiffCase{3, 303, PlainParams(), LongStream(), "plain_long"},
        DiffCase{4, 404, RichParams(), ShortStream(), "rich_1"},
        DiffCase{5, 505, RichParams(), ShortStream(), "rich_2"},
        DiffCase{6, 606, RichParams(), LongStream(), "rich_long"},
        DiffCase{7, 707, TemporalParams(), LongStream(), "temporal_1"},
        DiffCase{8, 808, TemporalParams(), LongStream(), "temporal_2"},
        DiffCase{9, 909, RichParams(), LongStream(), "rich_long_2"},
        DiffCase{10, 1010, TemporalParams(), LongStream(), "temporal_3"},
        DiffCase{11, 1111, ContextParams(), ShortStream(), "context_1"},
        DiffCase{12, 1212, ContextParams(), LongStream(), "context_2"},
        DiffCase{13, 1313, EverythingParams(), LongStream(), "all_1"},
        DiffCase{14, 1414, EverythingParams(), LongStream(), "all_2"},
        DiffCase{15, 1515, EverythingParams(), LongStream(), "all_3"},
        DiffCase{16, 1616, EverythingParams(), ShortStream(), "all_4"}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.label;
    });

/// Long soak: 10k requests over a rich temporal/context policy with three
/// interleaved policy updates — the heaviest single equivalence check.
TEST(DifferentialSoakTest, TenThousandRequestsWithUpdates) {
  PolicyGenParams policy_params;
  policy_params.seed = 4711;
  policy_params.num_roles = 40;
  policy_params.num_users = 60;
  policy_params.hierarchy_prob = 0.6;
  policy_params.ssd_sets = 4;
  policy_params.dsd_sets = 4;
  policy_params.cardinality_frac = 0.25;
  policy_params.duration_frac = 0.25;
  policy_params.shift_frac = 0.25;
  policy_params.context_frac = 0.25;
  policy_params.user_cap_frac = 0.25;
  const Policy base = GeneratePolicy(policy_params);

  // Three successive edits of increasing scope.
  std::vector<Policy> updates;
  {
    Policy u1 = base;
    (*u1.MutableRole(SyntheticRoleName(2)))->activation_cardinality = 2;
    updates.push_back(u1);
    Policy u2 = u1;
    (*u2.MutableUser(SyntheticUserName(3)))->max_active_roles = 2;
    updates.push_back(u2);
    Policy u3 = u2;
    (*u3.MutableRole(SyntheticRoleName(5)))->max_activation = 45 * kMinute;
    SodSet set;
    set.name = "DSDsoak";
    set.roles = {SyntheticRoleName(8), SyntheticRoleName(9),
                 SyntheticRoleName(10)};
    set.n = 2;
    ASSERT_TRUE(u3.AddDsd(std::move(set)).ok());
    updates.push_back(u3);
  }

  RequestGenParams request_params;
  request_params.seed = 1812;
  request_params.num_requests = 10000;
  request_params.max_advance = 3 * kHour + 1;
  const std::vector<Request> requests =
      RequestGenerator(base, request_params).Generate();

  SimulatedClock engine_clock(testutil::Noon());
  AuthorizationEngine engine(&engine_clock);
  ASSERT_TRUE(engine.LoadPolicy(base).ok());
  SimulatedClock baseline_clock(testutil::Noon());
  DirectEnforcer baseline(&baseline_clock);
  ASSERT_TRUE(baseline.LoadPolicy(base).ok());

  size_t next_update = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (next_update < updates.size() &&
        i == (next_update + 1) * requests.size() / 4) {
      ASSERT_TRUE(engine.ApplyPolicyUpdate(updates[next_update]).ok());
      ASSERT_TRUE(baseline.ApplyPolicyUpdate(updates[next_update]).ok());
      ++next_update;
    }
    const Decision engine_decision = ApplyRequest(engine, requests[i]);
    const Decision baseline_decision = ApplyRequest(baseline, requests[i]);
    ASSERT_EQ(engine_decision.allowed, baseline_decision.allowed)
        << "request #" << i << " " << RequestKindToString(requests[i].kind)
        << " user=" << requests[i].user << " role=" << requests[i].role
        << "\n  engine: " << engine_decision.rule << " / "
        << engine_decision.reason << "\n  baseline: "
        << baseline_decision.rule << " / " << baseline_decision.reason;
  }
  EXPECT_EQ(StateFingerprint(engine.rbac(), engine.role_state()),
            StateFingerprint(baseline.rbac(), baseline.role_state()));
  EXPECT_EQ(engine.rule_manager().dropped_firings(), 0u);
}

/// Differential check across a policy update: both systems apply the same
/// incremental change mid-stream and must stay in lockstep.
TEST(DifferentialUpdateTest, LockstepAcrossPolicyUpdate) {
  PolicyGenParams policy_params = RichParams();
  policy_params.seed = 77;
  const Policy before = GeneratePolicy(policy_params);

  Policy after = before;
  // Change a handful of roles: new cardinality and a new DSD set.
  auto role = after.MutableRole(SyntheticRoleName(3));
  ASSERT_TRUE(role.ok());
  (*role)->activation_cardinality = 2;
  SodSet set;
  set.name = "DSDnew";
  set.roles = {SyntheticRoleName(5), SyntheticRoleName(6),
               SyntheticRoleName(7)};
  set.n = 2;
  ASSERT_TRUE(after.AddDsd(std::move(set)).ok());
  ASSERT_TRUE(after.Validate().ok());

  RequestGenParams request_params;
  request_params.seed = 999;
  request_params.num_requests = 600;
  RequestGenerator generator(before, request_params);
  const std::vector<Request> requests = generator.Generate();

  SimulatedClock engine_clock(testutil::Noon());
  AuthorizationEngine engine(&engine_clock);
  ASSERT_TRUE(engine.LoadPolicy(before).ok());
  SimulatedClock baseline_clock(testutil::Noon());
  DirectEnforcer baseline(&baseline_clock);
  ASSERT_TRUE(baseline.LoadPolicy(before).ok());

  for (size_t i = 0; i < requests.size(); ++i) {
    if (i == requests.size() / 2) {
      ASSERT_TRUE(engine.ApplyPolicyUpdate(after).ok());
      ASSERT_TRUE(baseline.ApplyPolicyUpdate(after).ok());
    }
    const Decision engine_decision = ApplyRequest(engine, requests[i]);
    const Decision baseline_decision = ApplyRequest(baseline, requests[i]);
    ASSERT_EQ(engine_decision.allowed, baseline_decision.allowed)
        << "request #" << i << " " << RequestKindToString(requests[i].kind)
        << " role=" << requests[i].role << " engine="
        << engine_decision.rule << "/" << engine_decision.reason
        << " baseline=" << baseline_decision.rule << "/"
        << baseline_decision.reason;
  }
  EXPECT_EQ(StateFingerprint(engine.rbac(), engine.role_state()),
            StateFingerprint(baseline.rbac(), baseline.role_state()));
}

// ================================================================
// Satellite: cached sharded service vs uncached oracle (PR 4)
// ================================================================

/// Adapts the AuthorizationService facade to the engine-shaped surface
/// ApplyRequest() expects, folding AccessDecision back into Decision.
struct ServiceAdapter {
  AuthorizationService& service;

  static Decision ToDecision(const AccessDecision& decision) {
    Decision d;
    if (decision.allowed) {
      d.Allow(decision.rule);
    } else {
      d.Deny(decision.rule, decision.reason);
    }
    return d;
  }

  /// Mutators answer the typed AdminResult now; the denial reason (the
  /// surface the lockstep harness asserts on) rides the status message.
  static Decision ToDecision(const AdminResult& result) {
    Decision d;
    if (result.ok()) {
      d.Allow("");
    } else {
      d.Deny("", result.status.message());
    }
    return d;
  }

  Decision CreateSession(const UserName& user, const SessionId& session) {
    return ToDecision(service.CreateSession(user, session));
  }
  Decision DeleteSession(const SessionId& session) {
    return ToDecision(service.DeleteSession(session));
  }
  Decision AddActiveRole(const UserName& user, const SessionId& session,
                         const RoleName& role) {
    return ToDecision(service.AddActiveRole(user, session, role));
  }
  Decision DropActiveRole(const UserName& user, const SessionId& session,
                          const RoleName& role) {
    return ToDecision(service.DropActiveRole(user, session, role));
  }
  Decision CheckAccess(const SessionId& session, const OperationName& op,
                       const ObjectName& obj, const std::string& purpose) {
    AccessRequest request;
    request.session = session;
    request.operation = op;
    request.object = obj;
    request.purpose = purpose;
    return ToDecision(service.CheckAccess(request));
  }
  Decision AssignUser(const UserName& user, const RoleName& role) {
    return ToDecision(service.AssignUser(user, role));
  }
  Decision DeassignUser(const UserName& user, const RoleName& role) {
    return ToDecision(service.DeassignUser(user, role));
  }
  Decision EnableRole(const RoleName& role) {
    return ToDecision(service.EnableRole(role));
  }
  Decision DisableRole(const RoleName& role) {
    return ToDecision(service.DisableRole(role));
  }
  void SetContext(const std::string& key, const std::string& value) {
    service.SetContext(key, value);
  }
  void AdvanceTo(Time t) { service.AdvanceTo(t); }
  Time Now() const { return service.Now(); }
};

/// Policy shape for the cached-service harness. Activation cardinalities
/// are global-scope and enforced per shard by design (see the
/// AuthorizationService caveat), so the single-engine oracle excludes
/// them; everything per-user / per-session / temporal is fair game.
PolicyGenParams CachedHarnessPolicyParams(uint64_t seed) {
  PolicyGenParams params;
  params.seed = seed ^ 0x9e3779b97f4a7c15ull;
  params.num_roles = 28;
  params.num_users = 40;
  params.hierarchy_prob = 0.6;
  params.ssd_sets = 3;
  params.dsd_sets = 3;
  params.cardinality_frac = 0.0;
  params.duration_frac = 0.25;
  params.shift_frac = 0.35;  // Periodic enable/disable boundaries.
  params.context_frac = 0.25;
  params.user_cap_frac = 0.25;
  params.prereq_frac = 0.2;
  return params;
}

/// ≥10k randomized operations — checks, session create/drop, role
/// activate/drop, assign/deassign broadcasts, enable/disable, clock
/// advances across shift boundaries, context flips — through a cached
/// sharded service and the uncached DirectEnforcer oracle in lockstep.
/// Every kCheckAccess is issued twice against the service: the replay
/// must match both the first verdict and the oracle, which drives the
/// hit path hard while the interleaved mutations exercise staleness.
/// With `fastpath` the replays are answered caller-side from the shards'
/// published cache snapshots — the zero-hop read path must be invisible
/// to this oracle.
void RunCachedServiceHarness(uint64_t seed, bool fastpath) {
  const Policy policy = GeneratePolicy(CachedHarnessPolicyParams(seed));
  ASSERT_TRUE(policy.Validate().ok());

  // Two mid-stream policy edits: revoke a permission, then grant it back.
  Policy revoked = policy;
  Permission moved_perm;
  {
    auto role = revoked.MutableRole(SyntheticRoleName(1));
    ASSERT_TRUE(role.ok());
    ASSERT_FALSE((*role)->permissions.empty());
    moved_perm = *(*role)->permissions.begin();
    (*role)->permissions.erase((*role)->permissions.begin());
  }
  Policy granted = revoked;
  {
    auto role = granted.MutableRole(SyntheticRoleName(1));
    ASSERT_TRUE(role.ok());
    (*role)->permissions.insert(moved_perm);
  }

  RequestGenParams request_params;
  request_params.seed = seed;
  request_params.num_requests = 12000;
  request_params.max_advance = 45 * kMinute + 1;
  const std::vector<Request> requests =
      RequestGenerator(policy, request_params).Generate();
  ASSERT_GE(requests.size(), 10000u);

  ServiceConfig config;
  config.num_shards = 3;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 4096;
  config.decision_cache_fastpath = fastpath;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  ServiceAdapter cached{service};

  SimulatedClock oracle_clock(testutil::Noon());
  DirectEnforcer oracle(&oracle_clock);
  ASSERT_TRUE(oracle.LoadPolicy(policy).ok());

  const Policy* updates[] = {&revoked, &granted};
  size_t next_update = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (next_update < 2 && i == (next_update + 1) * requests.size() / 3) {
      // The stream's runtime assignments can make a re-validation fail
      // (e.g. a new UA pair now conflicts with policy SSD); that outcome
      // is seed-dependent but must be IDENTICAL on both sides, and a
      // rejected update must leave both systems unchanged and in step.
      const auto service_update =
          service.ApplyPolicyUpdate(*updates[next_update]);
      const Status oracle_update =
          oracle.ApplyPolicyUpdate(*updates[next_update]);
      ASSERT_EQ(service_update.ok(), oracle_update.ok())
          << "--seed=" << seed << " update #" << next_update
          << "\n  service: " << service_update.status().message()
          << "\n  oracle: " << oracle_update.message();
      ++next_update;
    }
    const Request& request = requests[i];
    const Decision got = ApplyRequest(cached, request);
    const Decision want = ApplyRequest(oracle, request);
    ASSERT_EQ(got.allowed, want.allowed)
        << "--seed=" << seed << " request #" << i << " "
        << RequestKindToString(request.kind) << " user=" << request.user
        << " session=" << request.session << " role=" << request.role
        << " op=" << request.operation << " obj=" << request.object
        << "\n  cached service: rule=" << got.rule
        << " reason=" << got.reason << "\n  oracle: rule=" << want.rule
        << " reason=" << want.reason;
    if (request.kind == RequestKind::kCheckAccess) {
      if (!want.allowed) {
        ASSERT_EQ(got.reason, want.reason)
            << "--seed=" << seed << " request #" << i;
      }
      // Immediate replay: nothing changed in between, so the (likely
      // cached) second verdict must agree with the dispatched first.
      const Decision again = ApplyRequest(cached, request);
      ASSERT_EQ(again.allowed, want.allowed)
          << "--seed=" << seed << " replay of request #" << i
          << " op=" << request.operation << " obj=" << request.object;
    }
  }

  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache_misses, 0u) << "--seed=" << seed;
  if (fastpath) {
    EXPECT_GT(stats.fastpath_hits, 0u) << "--seed=" << seed;
  } else {
    EXPECT_GT(stats.cache_hits, 0u) << "--seed=" << seed;
  }
}

TEST(CachedServiceDifferentialTest, TenThousandOpsZeroDivergences) {
  std::cerr << "[harness] cached-service differential seed: --seed="
            << g_harness_seed << "\n";
  RunCachedServiceHarness(g_harness_seed, /*fastpath=*/false);
}

/// The same 12k-op lockstep with the zero-hop read path on: caller-side
/// snapshot replays must never diverge from the oracle, across admin
/// broadcasts, policy edits, session churn and shift boundaries.
TEST(CachedServiceDifferentialTest, FastPathTenThousandOpsZeroDivergences) {
  std::cerr << "[harness] fast-path differential seed: --seed="
            << g_harness_seed << "\n";
  RunCachedServiceHarness(g_harness_seed, /*fastpath=*/true);
}

/// The policed arm: the same 12k-op lockstep with per-principal admission
/// quotas on. The oracle side runs its own bare Policer with identical
/// quotas and the same injected logical clock; a service refusal must
/// happen exactly when the oracle policer refuses (and carry the typed
/// "over quota" reason), and every admitted request must still match the
/// DirectEnforcer verdict — zero divergences in either direction.
/// QuotaEnforcement::kAlways keeps refusals deterministic (independent of
/// mailbox depth), and the fast path stays off so every check passes the
/// admission edge on both sides.
TEST(CachedServiceDifferentialTest, PolicedAdmissionZeroDivergences) {
  const uint64_t seed = g_harness_seed;
  std::cerr << "[harness] policed differential seed: --seed=" << seed
            << "\n";
  const Policy policy = GeneratePolicy(CachedHarnessPolicyParams(seed));
  ASSERT_TRUE(policy.Validate().ok());

  RequestGenParams request_params;
  request_params.seed = seed;
  request_params.num_requests = 12000;
  request_params.max_advance = 45 * kMinute + 1;
  const std::vector<Request> requests =
      RequestGenerator(policy, request_params).Generate();

  // One logical admission clock drives both policers; it advances 1ms per
  // op, decoupled from the harness's simulated RBAC time.
  auto logical_now = std::make_shared<std::atomic<int64_t>>(0);
  const Policer::Quota quota{/*rate_per_s=*/50.0, /*burst=*/2};

  ServiceConfig config;
  config.num_shards = 3;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 4096;
  config.quota_rate_per_s = quota.rate_per_s;
  config.quota_burst = quota.burst;
  config.quota_enforcement = QuotaEnforcement::kAlways;
  config.quota_clock = [logical_now] { return logical_now->load(); };
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  ServiceAdapter policed{service};

  SimulatedClock oracle_clock(testutil::Noon());
  DirectEnforcer oracle(&oracle_clock);
  ASSERT_TRUE(oracle.LoadPolicy(policy).ok());
  Policer::Options oracle_options;
  oracle_options.default_quota = quota;
  oracle_options.clock = [logical_now] { return logical_now->load(); };
  Policer oracle_policer(std::move(oracle_options));

  constexpr const char* kOverQuotaReason = "overloaded: over quota";
  uint64_t refused = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    logical_now->fetch_add(1'000'000);  // 1ms per op.
    const Request& request = requests[i];
    if (request.kind != RequestKind::kCheckAccess) {
      // Admin traffic is never policed; both sides mutate in lockstep.
      const Decision got = ApplyRequest(policed, request);
      const Decision want = ApplyRequest(oracle, request);
      ASSERT_EQ(got.allowed, want.allowed)
          << "--seed=" << seed << " request #" << i << " "
          << RequestKindToString(request.kind) << " user=" << request.user
          << "\n  policed service: " << got.reason
          << "\n  oracle: " << want.reason;
      continue;
    }
    // The service keys on the session (no user on the wire request); the
    // oracle policer must see the identical principal and clock.
    const bool refuse = oracle_policer.Admit(request.session) ==
                        Policer::Verdict::kOverQuota;
    const Decision got = ApplyRequest(policed, request);
    Decision want;
    if (refuse) {
      ++refused;
      ASSERT_FALSE(got.allowed) << "--seed=" << seed << " request #" << i;
      ASSERT_EQ(got.reason, kOverQuotaReason)
          << "--seed=" << seed << " request #" << i
          << " session=" << request.session;
    } else {
      want = ApplyRequest(oracle, request);
      ASSERT_EQ(got.allowed, want.allowed)
          << "--seed=" << seed << " request #" << i
          << " session=" << request.session << " op=" << request.operation
          << " obj=" << request.object
          << "\n  policed service: rule=" << got.rule
          << " reason=" << got.reason << "\n  oracle: rule=" << want.rule
          << " reason=" << want.reason;
    }
    // Replay at the same instant: the token spent (or verdict issued)
    // above makes the replay's own admission verdict — still in lockstep.
    const bool replay_refuse = oracle_policer.Admit(request.session) ==
                               Policer::Verdict::kOverQuota;
    const Decision again = ApplyRequest(policed, request);
    if (replay_refuse) {
      ++refused;
      ASSERT_FALSE(again.allowed)
          << "--seed=" << seed << " replay of request #" << i;
      ASSERT_EQ(again.reason, kOverQuotaReason)
          << "--seed=" << seed << " replay of request #" << i;
    } else {
      // An admitted replay implies the original was admitted too (a
      // refusal never refills the bucket), so `want` is populated.
      ASSERT_FALSE(refuse);
      ASSERT_EQ(again.allowed, want.allowed)
          << "--seed=" << seed << " replay of request #" << i;
    }
  }

  // The arm only proves something if both verdict classes occurred.
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.policer_admitted, 0u) << "--seed=" << seed;
  EXPECT_GT(stats.policer_over_quota, 0u) << "--seed=" << seed;
  EXPECT_EQ(stats.policer_refused, refused) << "--seed=" << seed;
  EXPECT_EQ(stats.policer_over_quota, oracle_policer.over_quota_verdicts())
      << "--seed=" << seed;
  EXPECT_EQ(stats.policer_admitted, oracle_policer.admitted())
      << "--seed=" << seed;
}

/// Same lockstep over the synchronous single-shard mode, where the cache
/// shares the caller's thread — a cheaper second arm with its own seed.
TEST(CachedServiceDifferentialTest, SynchronousCachedServiceMatchesOracle) {
  const uint64_t seed = g_harness_seed * 0xd1342543de82ef95ull + 1;
  std::cerr << "[harness] synchronous-arm seed derived from --seed="
            << g_harness_seed << "\n";

  const Policy policy = GeneratePolicy(CachedHarnessPolicyParams(seed));
  ASSERT_TRUE(policy.Validate().ok());

  RequestGenParams request_params;
  request_params.seed = seed;
  request_params.num_requests = 3000;
  request_params.max_advance = 2 * kHour + 1;
  const std::vector<Request> requests =
      RequestGenerator(policy, request_params).Generate();

  ServiceConfig config;
  config.num_shards = 1;
  config.synchronous = true;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 1024;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  ServiceAdapter cached{service};

  SimulatedClock oracle_clock(testutil::Noon());
  DirectEnforcer oracle(&oracle_clock);
  ASSERT_TRUE(oracle.LoadPolicy(policy).ok());

  for (size_t i = 0; i < requests.size(); ++i) {
    const Decision got = ApplyRequest(cached, requests[i]);
    const Decision want = ApplyRequest(oracle, requests[i]);
    ASSERT_EQ(got.allowed, want.allowed)
        << "--seed=" << g_harness_seed << " request #" << i << " "
        << RequestKindToString(requests[i].kind)
        << "\n  cached service: " << got.rule << " / " << got.reason
        << "\n  oracle: " << want.rule << " / " << want.reason;
    if (!want.allowed && requests[i].kind == RequestKind::kCheckAccess) {
      ASSERT_EQ(got.reason, want.reason) << "request #" << i;
    }
  }
  EXPECT_GT(service.Stats().cache_hits + service.Stats().cache_misses, 0u);
}

// ================================================================
// Satellite: update-churn lockstep under pauseless swaps (PR 9)
// ================================================================

/// 12k-op lockstep while a second thread applies ApplyPolicyUpdates
/// (permission / assignment / DSD toggles from scenario_gen's mutation
/// helpers) through the pauseless swap path. A shared step mutex makes
/// each (service op, oracle op) pair and each (service update, oracle
/// update) pair atomic — those are the linearization points; between any
/// two of them the two systems must agree exactly, so a swap that leaked a
/// half-applied generation into a verdict shows up as a divergence. The
/// main loop hands the step mutex over in turns: after every kOpsPerTurn
/// requests it grants the churn thread one turn and waits for it, so the
/// swaps land at positions fixed by the seed, not by the scheduler, and a
/// printed --seed replays them.
TEST(CachedServiceDifferentialTest, UpdateChurnTwelveThousandOpsZeroDivergences) {
  const uint64_t seed = g_harness_seed ^ 0xc0ffee5eedull;

  const Policy policy = GeneratePolicy(CachedHarnessPolicyParams(seed));
  ASSERT_TRUE(policy.Validate().ok()) << "--seed=" << g_harness_seed;

  RequestGenParams request_params;
  request_params.seed = seed;
  request_params.num_requests = 12000;
  request_params.max_advance = 45 * kMinute + 1;
  const std::vector<Request> requests =
      RequestGenerator(policy, request_params).Generate();
  ASSERT_GE(requests.size(), 10000u);

  ServiceConfig config;
  config.num_shards = 3;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 4096;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  ServiceAdapter cached{service};

  SimulatedClock oracle_clock(testutil::Noon());
  DirectEnforcer oracle(&oracle_clock);
  ASSERT_TRUE(oracle.LoadPolicy(policy).ok());

  // The oracle is single-threaded and the lockstep comparison needs the
  // pair (service call, oracle call) to be one atomic step; everything on
  // both systems happens under step_mu, and so do the turn counters and
  // the stop flag.
  constexpr size_t kOpsPerTurn = 64;
  std::mutex step_mu;
  std::condition_variable turn_cv;
  uint64_t turns_granted = 0;
  uint64_t turns_done = 0;
  bool stop = false;
  std::atomic<uint64_t> updates_applied{0};
  std::atomic<uint64_t> updates_rejected{0};
  std::atomic<bool> churn_ok{true};
  std::string churn_error;

  std::thread churn([&] {
    // The churn thread's own view of the evolving policy — advanced only
    // on updates BOTH systems accepted, so it always matches what the two
    // systems serve at the next linearization point.
    Policy current = policy;
    uint64_t salt = seed;
    int kind = 0;
    std::unique_lock<std::mutex> lock(step_mu);
    while (true) {
      turn_cv.wait(lock, [&] { return stop || turns_done < turns_granted; });
      if (stop) return;
      // One turn: rotate through the mutation kinds until one yields a
      // candidate, then apply it to both systems as one atomic pair (or to
      // neither, when no kind has a candidate).
      for (int attempt = 0; attempt < 3; ++attempt) {
        ++salt;
        Result<Policy> mutated = Status::NotFound("unset");
        switch (kind) {
          case 0:
            mutated = WithToggledPermission(current, salt);
            break;
          case 1:
            mutated = WithToggledAssignment(current, salt);
            break;
          default:
            mutated = WithToggledDsd(current, "churn-dsd");
            break;
        }
        kind = (kind + 1) % 3;
        if (!mutated.ok()) continue;  // No candidate for this kind; rotate.
        const auto service_update = service.ApplyPolicyUpdate(*mutated);
        const Status oracle_update = oracle.ApplyPolicyUpdate(*mutated);
        if (service_update.ok() != oracle_update.ok()) {
          churn_ok.store(false, std::memory_order_release);
          churn_error = "service: " + std::string(
              service_update.status().message()) + " / oracle: " +
              std::string(oracle_update.message());
        } else if (service_update.ok()) {
          current = std::move(*mutated);
          updates_applied.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Commits are best-effort on runtime conflicts (the entry is
          // skipped, not the update), so a rejection here is a static
          // validity refusal at prepare — both sides must refuse
          // identically and the churn moves on from the same base.
          updates_rejected.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      ++turns_done;
      turn_cv.notify_all();
    }
  });

  // Stops and joins the churn thread on every exit path: a failed ASSERT
  // below returns early, and a joinable std::thread's destructor would
  // call std::terminate while the thread waits for its next turn.
  struct ChurnJoiner {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& stop;
    std::thread& thread;
    void Join() {
      if (!thread.joinable()) return;
      {
        std::lock_guard<std::mutex> lock(mu);
        stop = true;
      }
      cv.notify_all();
      thread.join();
    }
    ~ChurnJoiner() { Join(); }
  } churn_joiner{step_mu, turn_cv, stop, churn};

  for (size_t i = 0; i < requests.size() && churn_ok; ++i) {
    const Request& request = requests[i];
    std::unique_lock<std::mutex> lock(step_mu);
    const Decision got = ApplyRequest(cached, request);
    const Decision want = ApplyRequest(oracle, request);
    ASSERT_EQ(got.allowed, want.allowed)
        << "--seed=" << g_harness_seed << " request #" << i << " "
        << RequestKindToString(request.kind) << " user=" << request.user
        << " session=" << request.session << " role=" << request.role
        << " op=" << request.operation << " obj=" << request.object
        << " after " << updates_applied.load() << " swaps"
        << "\n  service: rule=" << got.rule << " reason=" << got.reason
        << "\n  oracle: rule=" << want.rule << " reason=" << want.reason;
    if (request.kind == RequestKind::kCheckAccess && !want.allowed) {
      ASSERT_EQ(got.reason, want.reason)
          << "--seed=" << g_harness_seed << " request #" << i;
    }
    if ((i + 1) % kOpsPerTurn == 0) {
      // Grant the churn thread one turn and wait, still inside the step,
      // until it has finished: its swap lands between requests #i and #i+1.
      ++turns_granted;
      turn_cv.notify_all();
      turn_cv.wait(lock, [&] { return turns_done == turns_granted; });
    }
  }

  churn_joiner.Join();
  std::cerr << "[harness] update-churn differential seed: --seed="
            << g_harness_seed << " swaps landed: " << updates_applied.load()
            << " rejected: " << updates_rejected.load() << "\n";
  ASSERT_TRUE(churn_ok.load()) << "churned update diverged: " << churn_error
                               << " --seed=" << g_harness_seed;
  // The arm is vacuous unless a meaningful stream of swaps actually landed
  // mid-run; one turn per kOpsPerTurn requests grants ~187 turns over 12k
  // requests, so this fails only if most turns find no candidate mutation
  // or prepare refuses it.
  EXPECT_GE(updates_applied.load(), 16u) << "--seed=" << g_harness_seed;
  // The swap telemetry reconciles exactly with what the churn observed:
  // every accepted update was a pauseless commit, every rejection was
  // counted as a failure (and left both systems serving the old base).
  EXPECT_EQ(service.Stats().policy_swaps, updates_applied.load());
  EXPECT_EQ(service.Stats().policy_swap_failures, updates_rejected.load());
}

}  // namespace
}  // namespace sentinel

/// Custom main instead of gtest_main: accepts --seed=N (or "--seed N")
/// to replay or randomize the cached-service harness. The default is a
/// fixed seed so a bare ctest run is deterministic; scripts/check.sh's
/// `differential` stage passes a random seed on developer machines (and
/// pins one in CI). The active seed is printed in every failure message.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = 20260806;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (seed == 0) seed = std::random_device{}();
  if (seed == 0) seed = 0x5eed;  // random_device may legally return 0.
  sentinel::g_harness_seed = seed;
  return RUN_ALL_TESTS();
}
