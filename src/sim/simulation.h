// Deterministic single-threaded simulator of the identical streaming
// semantics as runtime::PoolExecutor: the same exec::FiringCore drives every
// node (same alignment rule, same wrappers, same blocking structure --
// nodes stall mid-emission on a full channel, holding already-consumed
// inputs). Deadlock is detected exactly -- a full round-robin sweep with no
// progress while work remains and every port closed -- with no timers,
// making the traffic and deadlock benchmarks reproducible on any machine.
// Channels are the sequential runtime::MessageRing whose coalescing the
// pooled backend's SpscRing reproduces, so the batched data plane is
// differential-tested against the sweep semantics.
//
// This is the engine behind exec::Backend::Sim; callers reach it through
// exec::Session (batch runs) or exec::Stream (live ports), both of which
// drive it through the same port-fed path. Options and results are the exec
// types (exec::RunSpec / exec::RunReport).
#pragma once

#include <memory>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/kernel.h"

namespace sdaf::sim {

// The incremental sweep engine behind the Sim backend of exec::Stream: the
// channels, nodes, and round-robin sweep rule, with the *caller* owning the
// sweep loop, so the injected feed channels (exec::RunSpec::ports, which
// must be set: every source is port-fed) can be refilled between pumps --
// "the sim drains whatever is pushed between deterministic sweeps". A pump
// that stops without finishing is not a verdict by itself: only the caller
// knows whether more input may still arrive. Once every port is closed, a
// no-progress pump *is* the exact deadlock verdict of the paper's sweep
// rule.
class SweepEngine {
 public:
  SweepEngine(const StreamGraph& g,
              const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
              const exec::RunSpec& options);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  // Round-robin sweeps until every node is done, a sweep makes no progress,
  // or sweeps() reaches the spec's max_sweeps. Returns true iff any sweep
  // made progress. Terminal sweeps (the all-done one and a no-progress one)
  // are not counted, so re-pumping an engine that stopped adds no sweeps.
  bool pump();

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] std::uint64_t sweeps() const;

  // Final report (traffic, fires, sink deliveries; state dump iff
  // `deadlocked`). The verdict flags are the caller's call, see above.
  [[nodiscard]] exec::RunReport report(bool deadlocked) const;

  // Snapshot assembly (ckpt): edge e's cumulative traffic at the barrier
  // cut -- the marker latch when the producer forwarded Marker(S), the
  // frozen totals when it finished before the barrier. Only valid once the
  // barrier's downstream consumers have checkpointed.
  [[nodiscard]] ckpt::EdgeCut edge_cut(EdgeId e,
                                       bool producer_checkpointed) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sdaf::sim
