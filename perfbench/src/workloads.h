// The benchmark's workloads and layer microbenchmarks.
//
//   ladder_pass   1002-node seeded SP-ladder, passthrough, batch 1, in-process
//   filter_dense  continuation_ladder(16, 64, 1), relays at pass rate 0.1,
//                 batch 64, periodic barrier snapshots, in-process
//   wire_mix      sdafd child process; 1 interactive + 2 batch connections
//
// Each returns the end-to-end metrics (untraced) or the per-layer metrics
// (Options::trace), after checking every output against its reference.
#pragma once

#include "common.h"

namespace perfbench {

[[nodiscard]] Result run_ladder_pass(const Options& opt);
[[nodiscard]] Result run_filter_dense(const Options& opt);
[[nodiscard]] Result run_wire_mix(const Options& opt);

// Per-operation costs of single layers, timed through their public headers
// on one thread (park_wake_ns uses two).
struct MicroCosts {
  double ring_op_ns = 0.0;          // SpscRing data push + peek + pop
  double ring_dummy_run_ns = 0.0;   // per dummy, in coalesced runs of 64
  double channel_op_ns = 0.0;       // BoundedChannel data push + peek + pop
  double park_wake_ns = 0.0;        // one futex park/wake hand-off
  double firing_step_ns = 0.0;      // one FiringCore passthrough firing
  double frame_codec_ns_per_byte = 0.0;  // PushBatch encode + decode
};
[[nodiscard]] MicroCosts measure_micro(bool tiny);
void add_micro_metrics(Result& r, const MicroCosts& m);

// Per-item operation counts observed on a workload, to be priced with
// MicroCosts (the accounting identity).
struct OpCounts {
  double firings = 0.0;
  double data_msgs = 0.0;   // channel data messages
  double dummies = 0.0;     // channel dummies
  double port_msgs = 0.0;   // ingress feed + egress tap messages
  double futex_parks = 0.0;
  double wire_bytes = 0.0;  // frame payload bytes (wire path only)
};
// Sets accounting.predicted_cpu_us_per_item and accounting.unexplained_frac
// against `measured_cpu_us_per_item`, and prints the identity to stderr.
void add_accounting(Result& r, const MicroCosts& m, const OpCounts& per_item,
                    double measured_cpu_us_per_item, const char* workload);

}  // namespace perfbench
