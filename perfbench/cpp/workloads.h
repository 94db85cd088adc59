#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Read path: a closed loop of single user-routed CheckAccess calls over a
/// Zipf-skewed key set larger than the shards' combined cache.
RunResult RunCheckHot(const Options& options);

/// Admin and temporal plane: the scenario's full request stream, replayed
/// in order through the service, once per round.
RunResult RunEnterpriseMixed(const Options& options);

/// Reads beside writes: wire clients against an in-process WireServer with
/// the audit exporter attached, while an admin thread swaps policy
/// generations at a fixed cadence.
RunResult RunWireChurn(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
