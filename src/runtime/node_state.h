// Per-node task for pooled execution: an exec::FiringCore whose delivery
// sink *parks* instead of blocking. A worker calls step() until it returns
// false; any later channel transition that could unblock the node (an input
// becoming non-empty, a full output draining) is reported through the Waker
// so a scheduler can re-enqueue it.
//
// The task never holds a lock across a kernel firing and never waits inside
// a channel, which is what lets a fixed worker pool run graphs with orders
// of magnitude more nodes than threads. The firing semantics themselves
// (alignment, dummy wrappers, EOS flood) live in src/exec/firing_core.cpp,
// shared with the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/firing_core.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/channel.h"
#include "src/runtime/kernel.h"
#include "src/runtime/trace.h"
#include "src/runtime/wrapper.h"

namespace sdaf::runtime {

// Scheduler hook: wake(node) must make the named node runnable again. The
// callee may be invoked from any worker thread and must be cheap; spurious
// wakes are allowed (the woken node simply makes no progress and re-parks).
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void wake(NodeId node) = 0;
};

class NodeState final : private exec::DeliverySink {
 public:
  // `in_producers[j]` / `out_consumers[slot]` name the node at the far end
  // of the corresponding channel; they are the wake targets for the
  // pop-freed-a-full-channel / push-filled-an-empty-channel transitions.
  // `feed` is a source's injected ingress channel (non-null iff `ins` is
  // empty); an egress tap rides in `outs` as one extra slot whose
  // out_consumers entry is kNoNode (its consumer is the external caller,
  // woken through the channel itself, never through the Waker).
  NodeState(NodeId node, Kernel& kernel, std::vector<BoundedChannel*> ins,
            std::vector<BoundedChannel*> outs, BoundedChannel* feed,
            NodeWrapper wrapper, std::vector<NodeId> in_producers,
            std::vector<NodeId> out_consumers, Waker* waker,
            std::uint32_t batch = 1, Tracer* tracer = nullptr,
            obs::NodeCounters* metrics = nullptr);

  // One scheduling quantum; returns true iff any progress was made
  // (a message delivered, consumed, or produced). After false the node is
  // quiescent until one of its channels changes.
  bool step() { return core_.step(); }

  // Park protocol support. After step() returns false the owning worker
  // calls park_summary() (still owner, so reading core state is safe)
  // to capture *why* the node is stuck, publishes it, parks, and then calls
  // probe(summary) to close the race with a wake that slipped between the
  // last unproductive step and the park. probe() reads only immutable
  // members and coherent channel-occupancy snapshots, so it is safe to
  // call after ownership has been lost; a stale verdict is handled by the
  // caller (it re-acquires the node or defers to whoever queued it).
  // The probe must run after the park transition's seq_cst RMW: that RMW
  // pairs with the seq_cst fence a channel peer issues between publishing
  // its counter and deciding whether to wake us, which is what makes the
  // lock-free channel's elided wake-ups lost-wakeup-free.
  [[nodiscard]] std::uint64_t park_summary() const {
    return core_.park_summary();
  }
  [[nodiscard]] bool probe(std::uint64_t summary) const;

  [[nodiscard]] bool done() const { return core_.done(); }
  [[nodiscard]] NodeId node() const { return core_.node(); }
  [[nodiscard]] std::uint64_t fires() const { return core_.fires; }
  [[nodiscard]] std::uint64_t sink_data() const { return core_.sink_data; }

  // Human-readable state for deadlock dumps; only valid at quiescence (or
  // from the owning worker).
  [[nodiscard]] std::string describe() const { return core_.describe(); }

  // Snapshot/restore plumbing (ckpt): see exec::FiringCore.
  void set_snapshot_plane(ckpt::SnapshotPlane* plane) {
    core_.set_snapshot_plane(plane);
  }
  void restore_cut(const ckpt::NodeCut& cut) { core_.restore_cut(cut); }
  void mark_done() { core_.mark_done(); }

 private:
  // DeliverySink: non-blocking channel ops plus peer wake-ups on the
  // empty->non-empty and full->non-full transitions. The batched ops issue
  // one wake-up per run, not per message.
  std::optional<HeadView> peek_head(std::size_t slot, bool may_wait) override;
  Message pop_head(std::size_t slot) override;
  void pop(std::size_t slot) override;
  void pop_dummies(std::size_t slot, std::size_t count) override;
  exec::PushOutcome try_push(std::size_t slot, Message&& m) override;
  std::size_t try_push_dummies(std::size_t slot, std::uint64_t first_seq,
                               std::size_t count,
                               exec::PushOutcome* outcome) override;
  std::optional<HeadView> peek_feed(bool may_wait) override;
  Message pop_feed() override;

  std::vector<BoundedChannel*> ins_;
  std::vector<BoundedChannel*> outs_;
  BoundedChannel* feed_;
  std::vector<NodeId> in_producers_;
  std::vector<NodeId> out_consumers_;
  Waker* waker_;
  exec::FiringCore core_;  // last: its sink is *this
};

}  // namespace sdaf::runtime
