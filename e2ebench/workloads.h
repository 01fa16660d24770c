// The benchmark's workloads. Each runs a fixed number of sessions derived
// from Options::seconds, checks every output it times (untimed, counted
// into RunResult::failed), and fills the end-to-end metrics — or, with
// Options::trace, the per-layer metrics.
#ifndef TPSET_E2EBENCH_WORKLOADS_H_
#define TPSET_E2EBENCH_WORKLOADS_H_

#include "common.h"

namespace e2e {

/// Cold one-shot sessions on uniform Table-III-like relations, sequential.
void RunOneshotUniform(const Options& opt, RunResult* out);

/// Cold one-shot sessions on zipf-skewed relations with num_threads = 4.
void RunOneshotSkewedT4(const Options& opt, RunResult* out);

/// Appends into per-fact chains under two continuous queries, with a warm
/// one-shot read every tenth epoch.
void RunStreamMixed(const Options& opt, RunResult* out);

}  // namespace e2e

#endif  // TPSET_E2EBENCH_WORKLOADS_H_
