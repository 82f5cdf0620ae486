// Long-lived streaming sessions with external ports: the live-traffic face
// of the execution API, and the path every run takes (a Session batch run
// is a Stream fed num_inputs tokens and closed). Session::open(StreamSpec)
// returns an exec::Stream whose typed ports carry a dynamic item count:
//
//   exec::Session session(graph, kernels);
//   exec::StreamSpec spec;
//   spec.run.backend = exec::Backend::Pooled;
//   spec.run.apply(*compiled);
//   exec::Stream stream = session.open(spec);
//   stream.input(0).push(runtime::Value(std::int64_t{42}));  // backpressured
//   while (auto item = stream.output(0).poll()) consume(*item);
//   stream.input(0).close();            // dynamic EOS -> the ordinary flood
//   exec::RunReport report = stream.finish();
//
// One InputPort per source node (push / try_push / push_batch with
// backpressure; close() is the dynamic end-of-stream that triggers the
// existing EOS flood) and one OutputPort per sink node (poll / poll_batch /
// blocking next), on both backends: the simulator drains whatever was
// pushed between deterministic sweeps on the caller's thread, and the pooled
// backend turns port transitions into task wake-ups, and its verdict rule is
// "quiescent *and* no port has pending items", so deadlock certification
// stays exact while ports are open (see
// runtime::PoolExecutor::submit).
//
// The paper's dummy-interval avoidance runs unchanged underneath: ports
// inject and extract *sequence-numbered* traffic at the graph boundary,
// and every interior wrapper, interval, and verdict is the same firing
// rule. A Session batch run is itself a Stream fed N firing tokens and
// closed; a caller that pushes the same N items in any pacing and closes
// gets a bit-identical report -- the differential harness enforces it
// (tests/harness, feed=port).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/exec/run_types.h"
#include "src/obs/metrics.h"
#include "src/runtime/message.h"

namespace sdaf::exec {

namespace stream_detail {
struct Core;  // backend-polymorphic stream engine (src/exec/stream.cpp)
}  // namespace stream_detail

// Everything a live stream needs. `run` carries the shared backend
// configuration (backend, dummy mode, intervals, forward_on_filter, batch,
// tracer, pool fields); num_inputs and ports are ignored
// -- the ports make the item count dynamic.
struct StreamSpec {
  RunSpec run;
  // Data items each ingress feed buffers before push() backpressures the
  // caller (an extra slot for EOS is always reserved on top).
  std::size_t feed_capacity = 256;
  // Items each egress tap buffers before the sink node parks; a parked sink
  // resumes when the caller polls. Taps never affect deadlock verdicts: a
  // sink parked on its tap counts as "waiting for the caller", not wedged.
  std::size_t egress_capacity = 1024;
  // false = sinks keep no egress tap (fire-and-forget ingestion; sink
  // deliveries still count in RunReport::sink_data).
  bool capture_outputs = true;
  // Attach per-node/per-channel counters so Stream::metrics() reports live
  // values. The hot-path cost is one relaxed load+store per counted event
  // (single-writer, no RMW); set false for benchmarking a zero-overhead
  // baseline -- metrics() then reports zero counters but live port gauges.
  // Ignored when run.metrics already points at a caller-owned registry.
  bool metrics = true;
  // Opaque resource reservation pinned for the stream's lifetime. The
  // admission-aware Session::open stores its qos::Admission ticket here (a
  // shared_ptr whose deleter releases the reservation), so the budget is
  // returned exactly when the stream is destroyed -- callers never pair
  // admit/release by hand.
  std::shared_ptr<void> lease;
};

// Outcome of a deadline-bounded push. TimedOut is the backpressure status:
// the stream would not absorb the item within the deadline (the graph may
// be busy, starved of polls -- or wedged; only close()+finish() can tell).
// Ended means the port is closed or the stream finished/aborted.
enum class PortPushOutcome : std::uint8_t { Ok, TimedOut, Ended };

// Ingress into one source node. Single caller thread per port at a time;
// distinct ports may be driven from distinct threads.
class InputPort {
 public:
  InputPort(const InputPort&) = delete;
  InputPort& operator=(const InputPort&) = delete;

  // Pushes the next item (sequence numbers are assigned in push order). An
  // empty Value is a pure firing token: the source kernel fires with an
  // empty input vector, as in a batch run; a non-empty Value rides
  // to the kernel as its single input. push() blocks on backpressure (on
  // the Sim backend it pumps sweeps instead of blocking) and returns false
  // iff the port is closed or the stream ended (deadlock certified /
  // aborted) -- or, Sim only, when the graph cannot absorb the item even
  // after pumping (a wedge the caller can confirm with finish()).
  //
  // Caveat for wedge-capable workloads (avoidance off, or unvalidated
  // intervals) on the pooled backend: deadlock is only certified once
  // every port closes, so if the graph wedges while this port is open, a
  // blocked push() has no one to unblock it -- the caller parked here is
  // the one who would have closed the port. Such callers should drive
  // ingestion with try_push (see tools/sdafc.cpp's --stdin loop) and fall
  // back to close() + finish() when the stream stops absorbing input.
  // Avoidance-armed streams never wedge, so their push() always returns.
  bool push(runtime::Value v = {});
  // Never blocks or pumps; false = no buffer space right now (or closed /
  // ended, which closed() distinguishes).
  bool try_push(runtime::Value v = {});
  // Deadline-bounded push: parks on the feed at most `timeout` (timed futex
  // park on the pooled backend; the Sim backend pumps instead and
  // reports TimedOut as soon as a pump cannot absorb the item). A caller
  // that must never hard-block on a wedge-capable stream -- a network
  // server ingesting on behalf of remote clients -- uses this instead of
  // push(). timeout <= 0 is exactly try_push with a three-way status.
  PortPushOutcome try_push_for(runtime::Value v, std::chrono::nanoseconds timeout);
  // Bulk ingest: pushes every value in order as ONE coalesced channel
  // operation per round -- a single ring reservation + a single counter
  // publish + a single wake for as many values as the feed has room for
  // (O(1) publishes for a batch that fits, instead of one per item) --
  // blocking like push() until all are accepted or the stream ends.
  // Returns how many were accepted; sequence numbers and all downstream
  // traffic are bit-identical to item-at-a-time push() (the differential
  // sweeps enforce it).
  std::size_t push_batch(std::vector<runtime::Value> values);
  // push_batch with a deadline across the whole batch: accepts what fits
  // within `timeout` and returns the accepted count (may be short).
  std::size_t push_batch_for(std::vector<runtime::Value> values,
                             std::chrono::nanoseconds timeout);

  // Dynamic end-of-stream: enqueues EOS (a reserved buffer slot guarantees
  // space), after which the source floods EOS exactly like a completed
  // batch source. Idempotent. All ports closed = the stream can reach a
  // final verdict.
  void close();

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] NodeId node() const { return node_; }
  // Items accepted so far == the next sequence number. Safe from any
  // thread (metrics snapshots read it while the port's caller pushes);
  // the single-writer relaxed atomic is the same discipline as the obs
  // counters, so this costs the pusher nothing.
  [[nodiscard]] std::uint64_t pushed() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

 private:
  friend struct stream_detail::Core;
  InputPort() = default;

  stream_detail::Core* core_ = nullptr;
  std::size_t index_ = 0;
  NodeId node_ = kNoNode;
  std::atomic<std::uint64_t> next_seq_{0};
  bool closed_ = false;
};

// Egress from one sink node: the items the sink kernel emits on its tap
// slot, in sequence order. Single caller thread per port at a time.
class OutputPort {
 public:
  struct Item {
    std::uint64_t seq = 0;
    runtime::Value value;
  };

  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  // Next available item, or nullopt when none is buffered (Sim: pumps
  // sweeps first). Skips interior dummies; consuming the tap's EOS flips
  // ended().
  std::optional<Item> poll();
  // Appends up to `max` items to *out; returns how many were appended.
  std::size_t poll_batch(std::vector<Item>* out, std::size_t max);
  // Blocks until an item arrives or the stream ends for this port (EOS
  // consumed, stream aborted, or -- Sim only -- no progress possible
  // without more input); nullopt = no further item will arrive *now*
  // (check ended() to tell end-of-stream from Sim starvation).
  std::optional<Item> next();

  [[nodiscard]] bool ended() const { return ended_; }
  [[nodiscard]] NodeId node() const { return node_; }

 private:
  friend struct stream_detail::Core;
  OutputPort() = default;

  stream_detail::Core* core_ = nullptr;
  std::size_t index_ = 0;
  NodeId node_ = kNoNode;
  bool ended_ = false;
};

// A long-lived execution with external ports. Obtain via Session::open.
// The graph, kernels and (for a shared pool) the PoolExecutor must outlive
// the Stream; destroying an unfinished Stream finishes it (closing every
// port and discarding the report).
class Stream {
 public:
  ~Stream();
  Stream(Stream&& other) noexcept;
  Stream& operator=(Stream&&) = delete;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] std::size_t input_count() const;
  [[nodiscard]] InputPort& input(std::size_t i);
  [[nodiscard]] InputPort& input_for(NodeId source);
  [[nodiscard]] std::size_t output_count() const;  // 0 unless capture_outputs
  [[nodiscard]] OutputPort& output(std::size_t i);
  [[nodiscard]] OutputPort& output_for(NodeId sink);

  // Sim backend: run sweeps on the caller's thread until nothing more can
  // progress without new input (ports call this on demand too, so explicit
  // pumping is optional). No-op on the pooled backend.
  void pump();

  // Live metrics snapshot: per-node and per-channel counters from the
  // attached registry (zeros when StreamSpec::metrics is false), the
  // ingress/egress port gauges, and -- on the Pooled backend -- the pool's
  // per-worker scheduler counters. Safe to call from any thread at any time
  // while the Stream is alive (every counter read is a relaxed atomic
  // load), which is exactly what obs::MetricsSampler needs as its source.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;

  // --- Checkpointing (sdaf::ckpt, see docs/SNAPSHOTS.md) ----------------
  // Starts an asynchronous barrier snapshot without stopping the stream:
  // picks the barrier S = max over ports of items accepted so far, injects
  // Marker(S) into every open feed (lagging ports get theirs exactly when
  // they reach S), and returns immediately while the markers ride the
  // ordinary channels. false = a snapshot is already pending (barriers
  // serialize) or the stream already finished. Safe from any thread; port
  // callers keep pushing/polling concurrently.
  [[nodiscard]] bool snapshot_begin();
  // Non-blocking completion check: advances collection (Sim: runs sweeps on
  // the caller's thread; all backends: reaps tap markers idle output ports
  // have not consumed) and returns the assembled snapshot once every node
  // has checkpointed and every tap saw its marker. nullopt = still pending,
  // or no snapshot was begun.
  [[nodiscard]] std::optional<ckpt::StreamSnapshot> snapshot_poll();
  // snapshot_begin (unless a barrier is already pending) + poll until
  // `timeout` elapses. A timed-out barrier stays pending -- on a wedged
  // stream it never completes; on a merely slow one a later call can still
  // collect it.
  [[nodiscard]] std::optional<ckpt::StreamSnapshot> snapshot(
      std::chrono::milliseconds timeout);
  // Logical stream generation over this compiled topology: 0 for
  // Session::open, snapshot.epoch + 1 for a Session::restore'd stream.
  [[nodiscard]] std::uint64_t epoch() const;

  // Closes any open input ports, drains (and discards) whatever remains on
  // the egress taps so the EOS flood can always complete, waits for the
  // final exact verdict, and collects the report -- completed, or
  // deadlocked with the usual state dump (plus port occupancy lines). At
  // most once. A pending snapshot barrier is abandoned.
  [[nodiscard]] RunReport finish();

 private:
  friend class Session;
  explicit Stream(std::unique_ptr<stream_detail::Core> core);
  std::unique_ptr<stream_detail::Core> core_;
};

}  // namespace sdaf::exec
