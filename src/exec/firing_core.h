// The one true firing rule. Both execution backends -- the deterministic
// simulator and the pooled scheduler -- run
// each node through this state machine: sequence-number alignment at the
// minimum input head, kernel invocation only when data arrived, wrapper-
// driven dummy origination/forwarding, per-channel-asynchronous output
// delivery, and the EOS flood. Backends differ only in *delivery* -- how a
// message moves through a channel and what happens when it cannot -- which
// is exactly the DeliverySink contract below.
//
// The data plane is allocation-free, batched, and (on the concurrent
// backends) lock-free: alignment peeks payload-free HeadViews (never
// copying a payload), data is moved out of a channel by its single
// consumer without a mutex (the channels ride runtime::SpscRing), and
// consecutive-sequence dummy runs travel as single coalesced segments in
// both directions (pop_dummies / try_push_dummies). A `batch` quantum lets
// step() run several firings before handing outputs to the sink, so one
// channel op and one (usually elided) wake-up amortize over the whole
// batch. All of this is below the firing semantics: per-edge traffic,
// firing counts and verdicts are bit-identical at every batch setting,
// which the differential tests enforce.
//
// A FiringCore is single-owner: exactly one thread may call step() at a
// time (the simulator sweep, or the pool worker that currently owns the
// task). The sink callbacks are invoked from inside
// step() on that same thread.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/graph/stream_graph.h"
#include "src/obs/metrics.h"
#include "src/runtime/kernel.h"
#include "src/runtime/message.h"
#include "src/runtime/trace.h"
#include "src/runtime/wrapper.h"

namespace sdaf::exec {

// Outcome of a non-blocking delivery attempt.
enum class PushOutcome : std::uint8_t {
  Delivered,  // message accepted by the channel
  Blocked,    // channel full; retry after a transition
  Aborted,    // run is tearing down; stop delivering
};

// Backend delivery contract. Peeks/pops act on in-slots, pushes on
// out-slots (slot indices follow StreamGraph::in_edges/out_edges order).
//
//   simulator  peek_head = ring head view, try_push = capacity check
//   pooled     peeks/pushes are non-blocking and additionally wake the
//              peer node on empty->non-empty / full->non-full edges
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;

  // Payload-free view of the head of in-slot `slot` (seq, kind, and the
  // length of the consecutive dummy run starting there), or empty when no
  // message is available (backend-specific: empty channel, or aborted run).
  // `may_wait` is true only when the core holds no undelivered outputs. No
  // backend blocks any more: every sink returns immediately and ignores it
  // (the signature is kept for sinks outside src/, e.g. perfbench's).
  [[nodiscard]] virtual std::optional<runtime::HeadView> peek_head(
      std::size_t slot, bool may_wait) = 0;

  // Removes the head of in-slot `slot` and returns it (payload moved out,
  // one critical section). Precondition: the immediately preceding
  // peek_head(slot) observed a head.
  [[nodiscard]] virtual runtime::Message pop_head(std::size_t slot) = 0;

  // Removes the head of in-slot `slot`, discarding it (dummy/EOS paths
  // never need the payload). Precondition: as for pop_head.
  virtual void pop(std::size_t slot) = 0;

  // Removes `count` dummies from the head run of in-slot `slot` with one
  // channel operation and one producer wake-up. Precondition: the
  // preceding peek_head(slot) observed a dummy head with run >= count.
  virtual void pop_dummies(std::size_t slot, std::size_t count) = 0;

  // Attempts to deliver `m` on out-slot `slot` without blocking. Consumes
  // `m` only when returning Delivered.
  [[nodiscard]] virtual PushOutcome try_push(std::size_t slot,
                                             runtime::Message&& m) = 0;

  // Attempts to deliver up to `count` dummies first_seq, first_seq+1, ...
  // on out-slot `slot` as one coalesced run. Returns how many were
  // accepted; `*outcome` is Delivered when all fit, Blocked/Aborted
  // otherwise.
  [[nodiscard]] virtual std::size_t try_push_dummies(std::size_t slot,
                                                     std::uint64_t first_seq,
                                                     std::size_t count,
                                                     PushOutcome* outcome) = 0;

  // Sources only (in_slots == 0): head view / removal of the injected
  // ingress feed, with the same `may_wait` meaning as peek_head. The
  // defaults assert, so a sink that never drives a source (perfbench's
  // one-in-slot QueueSink) need not override them; every backend does.
  [[nodiscard]] virtual std::optional<runtime::HeadView> peek_feed(
      bool may_wait);
  [[nodiscard]] virtual runtime::Message pop_feed();
};

// Park summary encoding, shared by the pooled scheduler's park/probe
// protocol and the deadlock state dumps: the top two bits select the park
// reason, the low 62 bits are a mask of the output slots the node is
// blocked on (slots >= 62 degrade to "check every slot"). A node only
// parks done, output-blocked (pending messages for full channels), or
// input-blocked (some input empty); every other situation lets step()
// progress.
inline constexpr std::uint64_t kParkInputs = 0;
inline constexpr std::uint64_t kParkDone = 1;
inline constexpr std::uint64_t kParkOutputs = 2;
inline constexpr int kParkTagShift = 62;
inline constexpr std::uint64_t kParkSlotMask = (std::uint64_t{1} << 62) - 1;

[[nodiscard]] std::string describe_park_summary(std::uint64_t summary);

// One formatter for the deadlock state dumps every backend emits -- the
// unified shape is
//
//   edge <i> <from>-><to> <occ>/<cap> pushed=<D>+<K>d [head=...] [tail=...]
//   node <name> <describe> park=<park-summary text>
//     trace <event>            (last few tracer events, when armed)
//
// Backends supply accessors for their channel and node representations;
// `tail` is empty when a backend cannot observe it cheaply, and the trace
// lines appear only when the run carried a Tracer.
struct EdgeDumpInfo {
  std::size_t occupancy = 0;
  std::size_t capacity = 0;
  std::uint64_t data_pushed = 0;
  std::uint64_t dummies_pushed = 0;
  std::optional<runtime::Message> head;
  std::optional<runtime::Message> tail;
};

struct NodeDumpInfo {
  std::string describe;            // FiringCore::describe() or equivalent
  std::uint64_t park_summary = 0;  // encoding below
};

[[nodiscard]] std::string dump_wedged_state(
    const StreamGraph& g,
    const std::function<EdgeDumpInfo(EdgeId)>& edge_info,
    const std::function<NodeDumpInfo(NodeId)>& node_info,
    const runtime::Tracer* tracer = nullptr, std::size_t trace_tail = 4);

class FiringCore {
 public:
  // `in_slots`/`out_slots` are the node's degree; the channels themselves
  // live behind `sink`. `batch` is the firing quantum (see RunSpec::batch;
  // clamped to >= 1). `tracer` (optional, not owned) records per-message
  // events; `tick` (optional, not owned) supplies the tracer timestamp --
  // the simulator points it at its sweep counter, the pooled backend leaves
  // it null (tick 0; event *order* across threads is not meaningful there).
  // A source (in_slots == 0) consumes the sink's injected feed
  // (peek_feed/pop_feed), one message per firing: a payload-free data
  // message is a pure firing token (the kernel sees an empty input vector),
  // a payload rides to the kernel as a single-slot input, and EOS triggers
  // the ordinary flood. `num_inputs` is unused -- a batch run's item count
  // is the number of tokens its feed carries -- and stays only so existing
  // positional callers keep compiling.
  // `metrics` (optional, not owned): the node's obs counter shard;
  // increments happen at the same sites on every backend, so the counters
  // are differentially exact against the sim reference.
  FiringCore(NodeId node, runtime::Kernel& kernel, std::size_t in_slots,
             std::size_t out_slots, runtime::NodeWrapper wrapper,
             std::uint64_t num_inputs, DeliverySink& sink,
             std::uint32_t batch = 1, runtime::Tracer* tracer = nullptr,
             const std::uint64_t* tick = nullptr,
             obs::NodeCounters* metrics = nullptr);

  // One scheduling quantum; returns true iff any progress was made (a
  // message delivered, consumed, or produced). After false the node cannot
  // progress until a channel changes (or the run aborted; see aborted()).
  bool step();

  [[nodiscard]] bool done() const { return done_; }
  // True once the sink reported PushOutcome::Aborted; the core stops
  // delivering and step() returns false forever.
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] bool has_pending() const { return !pending_.empty(); }
  [[nodiscard]] NodeId node() const { return node_; }

  // Why an unproductive node is stuck, in the encoding above. Owner-only.
  [[nodiscard]] std::uint64_t park_summary() const;

  // Human-readable state for deadlock dumps. Owner-only (or quiescent).
  [[nodiscard]] std::string describe() const;

  // Snapshot plumbing (ckpt). set_snapshot_plane attaches the stream's
  // barrier coordinator (null = snapshots off, the default: every marker
  // branch below is then dead and the fast path is unchanged). When a
  // Marker(S) aligns at this node's inputs, step() pops the markers,
  // reports a NodeCut to the plane, and queues Marker(S) on every output
  // after the pre-S emissions -- no kernel firing, no counter movement.
  // queue_eos additionally reports the node's final cut to the plane so a
  // barrier begun after this node drained still completes.
  void set_snapshot_plane(ckpt::SnapshotPlane* plane) { plane_ = plane; }

  // Restore plumbing: rehydrate this core from a NodeCut taken at a
  // barrier. Live node: restore_cut alone. Done node: restore_cut (its
  // final counters) *then* mark_done, which makes the core terminal and
  // seeds the plane's finished set; its outgoing channels are preloaded
  // with EOS by the engine. Must run before the first step().
  void restore_cut(const ckpt::NodeCut& cut);
  void mark_done();

  std::uint64_t fires = 0;      // kernel invocations
  std::uint64_t sink_data = 0;  // data messages consumed

 private:
  // One queued output: a single message, or (run > 1) a coalesced run of
  // `run` dummies starting at message.seq.
  struct PendingRun {
    std::size_t out_slot;
    runtime::Message message;
    std::uint32_t run = 1;
  };

  void trace(runtime::TraceKind kind, std::size_t slot, std::uint64_t seq);
  // The node's state at a consistent cut (ckpt).
  [[nodiscard]] ckpt::NodeCut make_cut(bool done) const;
  // Barrier alignment reached: report the cut and forward Marker(S).
  void checkpoint(std::uint64_t barrier_seq);
  // Queues this firing's outputs: kernel data plus wrapper-mandated
  // dummies. The wrapper is consulted exactly once per slot per seq;
  // consecutive dummies for a slot coalesce into one pending run.
  void queue_outputs(std::uint64_t seq, bool any_input_dummy);
  void queue_dummy(std::size_t slot, std::uint64_t seq);
  void queue_eos();
  // Pushes whatever fits from pending_, per-channel asynchronously: a full
  // channel must not block messages destined for channels with space (but
  // messages for the *same* channel stay FIFO). Returns true iff anything
  // was delivered.
  bool drain_pending();
  // One alignment + firing attempt; returns how many firing quanta it
  // consumed (0 = no progress possible). When every aligned head is a
  // dummy, consumes the whole aligned run -- bounded by the other heads
  // and by `budget`, so a quantum never fires more than RunSpec::batch
  // sequence numbers -- with one channel op per slot.
  std::uint64_t fire_once(std::uint64_t budget);

  NodeId node_;
  runtime::Kernel& kernel_;
  std::size_t in_slots_;
  std::size_t out_slots_;
  runtime::NodeWrapper wrapper_;
  DeliverySink& sink_;
  std::uint32_t batch_;
  runtime::Tracer* tracer_;
  const std::uint64_t* tick_;
  obs::NodeCounters* metrics_;
  runtime::Emitter emitter_;
  std::vector<std::optional<runtime::Value>> inputs_;
  // Scratch single-slot input vector for payload-carrying feed messages.
  std::vector<std::optional<runtime::Value>> feed_input_;
  std::vector<runtime::HeadView> heads_;
  std::vector<PendingRun> pending_;
  // Index into pending_ of the slot's trailing dummy run (coalescing
  // target), or npos. Only valid between drains; drain_pending resets it.
  std::vector<std::size_t> pending_tail_;
  std::vector<std::uint8_t> slot_blocked_;  // drain_pending scratch
  std::uint64_t source_seq_ = 0;
  bool eos_flooded_ = false;
  bool done_ = false;
  bool aborted_ = false;
  ckpt::SnapshotPlane* plane_ = nullptr;
};

}  // namespace sdaf::exec
