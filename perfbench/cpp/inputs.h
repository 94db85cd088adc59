// Inputs, deployment and oracle helpers shared by the three workloads.
//
// Every workload draws from one input family — GenerateScenario over the
// enterprise org shape with a reduced population — and loads it the way a
// deployment does: .acp text → PolicyParser::Parse → LoadPolicy. Verdicts
// are checked against DirectEnforcer, the repository's hand-coded reference
// enforcer, which shares no rule machinery with the service.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/sentinelpp.h"
#include "baseline/direct_enforcer.h"
#include "common.h"
#include "workload/scenario_gen.h"

namespace perfbench {

/// The one service configuration all workloads run: 2 shards (half the
/// 4-CPU host, leaving room for the caller, reactor and admin threads),
/// decision cache with zero-hop fast path, unbounded mailbox, no deadlines,
/// no quotas, default telemetry sampling.
constexpr int kShards = 2;
constexpr size_t kCacheSlots = 4096;
sentinel::ServiceConfig BaseServiceConfig();

/// Simulated start instant: Monday 2026-07-06 09:00.
sentinel::Time StartTime();

/// Scenario size for a run. Full runs use a few thousand users over the
/// unchanged 6-division, 7-level org (~6.5k roles); --short shrinks the
/// org depth and population so a run takes seconds.
struct Sizes {
  int users = 0;
  int depth = 0;
  int requests = 0;  // enterprise-mixed stream length
  int keys = 0;      // distinct check keys (check-hot / wire-churn)
};
Sizes SizesFor(const Options& options);

/// The scenario: the enterprise preset's org and request stream at the
/// preset's own fixed seed, with the run's population. It is the same in
/// every run; --seed draws the check traffic (keys, Zipf ranks, toggled
/// share). A drawn org or stream would move the cost of a run by more than
/// the bounds (see README.md, "Seeds").
struct Inputs {
  sentinel::Scenario scenario;
  std::string policy_text;  // The scenario policy rendered as .acp.
};
Inputs MakeInputs(const Sizes& sizes);

/// One warm session per user, activating each of the user's assigned
/// roles (in name order). Activations the policy refuses — DSD pairs,
/// roles outside their shift, unmet context — are verdicts, not failures.
struct WarmSession {
  sentinel::UserName user;
  sentinel::SessionId session;
  std::vector<sentinel::RoleName> roles;
};
std::vector<WarmSession> WarmPlan(const sentinel::Policy& policy);

/// A deployed service plus what its set-up cost.
struct Deployment {
  std::unique_ptr<sentinel::AuthorizationService> service;
  double setup_s = 0;  // Create + Parse + LoadPolicy + warm-up.
  std::vector<uint8_t> warm_verdicts;
};

/// Builds a service from `inputs`: Create, Parse, LoadPolicy and (when
/// `warm` is non-null) the warm sessions. Failures land in `result`; the
/// returned service is null when the deployment could not be made.
Deployment Deploy(const Inputs& inputs, sentinel::ServiceConfig config,
                  const std::vector<WarmSession>* warm, RunResult* result);

/// Replays the warm plan on the oracle; returns its verdicts in plan order
/// (session create, then each activation).
std::vector<uint8_t> WarmOracle(sentinel::DirectEnforcer& oracle,
                                const std::vector<WarmSession>& plan);

/// Replays the warm plan on a bare engine (trace-mode layer runs).
void WarmEngine(sentinel::AuthorizationEngine& engine,
                const std::vector<WarmSession>& plan);

/// Compares service set-up verdicts with the oracle's.
void CheckWarm(const std::vector<uint8_t>& got,
               const std::vector<uint8_t>& want, RunResult* result);

/// The churn toggle: generation 0 is the parsed base policy, generation 1
/// the same policy with WithToggledPermission(salt) applied. The salt picks
/// the role active in the most warm sessions (a division root, senior to
/// its whole subtree), so the toggle flips verdicts for many sessions.
struct Churn {
  uint64_t salt = 0;
  sentinel::RoleName role;
  std::shared_ptr<const sentinel::Policy> gen[2];
};
Churn MakeChurn(std::shared_ptr<const sentinel::Policy> base,
                const sentinel::DirectEnforcer& warmed_oracle,
                const std::vector<WarmSession>& plan);

/// The synthetic permission WithToggledPermission toggles.
inline const char* kChurnOperation = "churn";
inline const char* kChurnObject = "churn-object";

/// One distinct check: a user-routed, purpose-free request and its oracle
/// verdict under each churn generation.
struct CheckKey {
  sentinel::AccessRequest request;
  bool allow[2] = {false, false};
  bool toggled = false;  // Asks for the churn permission.
};

/// `count` distinct keys over the warm sessions: the first half draw a
/// permission the session holds (when it holds any), the rest a random
/// (operation, object) pair of the scenario. Verdicts are filled in by
/// FillVerdicts.
std::vector<CheckKey> MakeCheckKeys(const std::vector<WarmSession>& plan,
                                    sentinel::DirectEnforcer& oracle,
                                    int count, uint64_t seed);

/// Keys asking for the churn permission, one per warm session that holds
/// an active role.
std::vector<CheckKey> MakeChurnKeys(const std::vector<WarmSession>& plan);

/// Oracle verdicts of every key under generation `gen`.
void FillVerdicts(sentinel::DirectEnforcer& oracle, int gen,
                  std::vector<CheckKey>* keys);

/// `length` key indexes drawn Zipf(s) over `keys` ranks; the rank → key
/// mapping is a seeded shuffle, so hot keys spread over users and shards.
std::vector<uint32_t> ZipfSequence(size_t keys, size_t length, double s,
                                   uint64_t seed);

/// Applies `gen` swaps of the churn toggle to `service` (alternating
/// generations 1, 0, 1, ...), each followed by a probe check whose verdict
/// must equal the oracle's under the same generation. The oracle mirrors
/// every swap. Returns each ApplyPolicyUpdate's return latency in ms.
std::vector<double> SwapProbe(sentinel::AuthorizationService& service,
                              const Churn& churn,
                              const sentinel::AccessRequest& probe,
                              const std::vector<uint8_t>& want, int swaps,
                              RunResult* result);

/// The oracle side of SwapProbe: verdicts of `probe` after each swap.
std::vector<uint8_t> SwapProbeOracle(sentinel::DirectEnforcer& oracle,
                                     const Churn& churn,
                                     const sentinel::AccessRequest& probe,
                                     int swaps);

/// Counters merged across shards and the service boundary.
struct RegistryCounts {
  uint64_t raises = 0, occurrences = 0, firings = 0, else_firings = 0,
           dropped = 0, fastpath_hits = 0, cache_misses = 0, cache_stale = 0,
           decisions = 0;
  double mailbox_wait_sum = 0, mailbox_wait_count = 0;
  double batch_sum = 0, batch_count = 0;
  double swap_build_sum = 0, swap_build_count = 0;
  double swap_commit_sum = 0, swap_commit_count = 0;
};
RegistryCounts ReadRegistry(sentinel::AuthorizationService& service);

/// Per-layer metrics every workload reports from the registry (deltas
/// between `before` and `after`, `ops` operations apart) and from a timed
/// RenderMetrics call.
void RegistryLayerMetrics(sentinel::AuthorizationService& service,
                          const RegistryCounts& before,
                          const RegistryCounts& after, double ops,
                          RunResult* result);

/// Per-layer metrics of the policy toolchain on a bare engine: parse,
/// LoadPolicy, rules generated, PreparePolicyUpdate on the churn pair.
/// Returns the loaded engine for further bare-layer timing.
std::unique_ptr<sentinel::AuthorizationEngine> CoreLayerMetrics(
    const Inputs& inputs, const Churn& churn, sentinel::SimulatedClock* clock,
    RunResult* result);

/// Every per-layer metric name with its unit, in report order. Metrics a
/// workload does not exercise are reported as 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
