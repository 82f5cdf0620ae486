#include "src/exec/stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/qos/admission.h"
#include "src/qos/credit.h"
#include "src/runtime/channel.h"
#include "src/runtime/pool_executor.h"
#include "src/sim/simulation.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"

namespace sdaf::exec {
namespace stream_detail {

using runtime::BoundedChannel;
using runtime::Message;
using runtime::MessageKind;
using runtime::ProducerSignal;
using runtime::PushResult;
using runtime::Value;

// What a snapshot pins: the compiled topology (CompileCache's canonical
// signature) plus every traffic-affecting run setting. Restore refuses a
// snapshot whose signature does not match the spec it is rehydrated into;
// backend and capacities are deliberately excluded (snapshots are
// backend-portable, and port buffer sizes only pace the caller).
std::string snapshot_signature(const StreamGraph& g, const RunSpec& run) {
  std::ostringstream sig;
  sig << core::CompileCache::signature(g, core::CompileOptions{});
  sig << "|mode=" << static_cast<int>(run.mode)
      << "|fwd=" << (run.forward_on_filter.empty() ? "-" : "");
  for (const std::uint8_t f : run.forward_on_filter) sig << int{f};
  sig << "|iv=";
  for (const std::int64_t v : run.intervals) sig << v << ",";
  return std::move(sig).str();
}

// The backend-polymorphic stream engine. The base class owns everything a
// stream is made of -- the port channels (feeds with one reserved EOS slot,
// egress taps), the PortBinding the backend consumes, and the port handles
// -- plus the backend-agnostic port logic. Subclasses supply how execution
// is driven (sweeps on the caller's thread vs. pool tasks) and
// what a port transition must additionally do (nothing, or a task wake-up).
struct Core {
  const StreamGraph& graph;
  std::vector<std::shared_ptr<runtime::Kernel>> kernels;
  StreamSpec spec;
  PortBinding binding;
  std::vector<std::unique_ptr<BoundedChannel>> feed_channels;
  std::vector<std::unique_ptr<ProducerSignal>> feed_signals;
  std::vector<std::unique_ptr<BoundedChannel>> egress_channels;
  std::vector<std::unique_ptr<InputPort>> inputs;
  std::vector<std::unique_ptr<OutputPort>> outputs;
  // --- per-tenant credit backpressure (sdaf::qos) -----------------------
  // Borrowed gauge bounding this tenant's in-flight items (null or
  // unlimited = no credit gating; normalized to null below so every check
  // is one pointer test). A push acquires one credit BEFORE probing channel
  // space; the credit returns when the source node consumes the item (the
  // feed's drain hook fires on the consumer thread) or, for items still
  // buffered when the stream dies, in finish() after collect(). The charge
  // is recorded in `credit_releaser.held` before the channel publish, so
  // drain decrements can never outrun their increments; `held` is signed
  // only to tolerate the transient where a concurrent drain's decrement
  // lands between a batch push and its (post-publish) charge -- at
  // quiescence it is exact and non-negative.
  qos::CreditGauge* credits = nullptr;
  struct CreditReleaser final : BoundedChannel::DrainHook {
    qos::CreditGauge* gauge = nullptr;
    std::atomic<std::int64_t> held{0};
    void on_data_drained(std::size_t n) override {
      held.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
      gauge->release(n);
    }
    void charge(std::uint64_t n) {
      held.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    }
    void uncharge(std::uint64_t n) {
      held.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
      gauge->release(n);
    }
    // finish() only (quiesced): returns whatever the stream still holds --
    // items pushed but never consumed (deadlock, abort, undrained feeds).
    void release_rest() {
      const std::int64_t rest = held.exchange(0, std::memory_order_relaxed);
      if (rest > 0) gauge->release(static_cast<std::uint64_t>(rest));
    }
  };
  CreditReleaser credit_releaser;
  // Counter registry the backend writes through (see StreamSpec::metrics).
  // Owned here unless the caller supplied one via spec.run.metrics, so
  // snapshots stay valid for the Stream's whole lifetime regardless of
  // backend teardown order.
  std::unique_ptr<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* registry = nullptr;
  Stopwatch clock;
  bool collected = false;

  // --- checkpoint state (sdaf::ckpt) ------------------------------------
  // Locking: snap_mu serializes begin/poll/assembly and may nest a
  // port_mus[i] or an egress_mus[j] try_lock inside it; the port paths take
  // only their own port's mutex and never snap_mu, so there is no lock
  // inversion. port_mus[i] serializes every producer-side op on feed i (the
  // caller's pushes and the barrier's marker injection -- the ring is SPSC,
  // two concurrent producers would be a race); egress_mus[j] serializes
  // every consumer-side op on tap j (the caller's polls and the barrier's
  // marker reaping).
  static constexpr std::uint64_t kNoBarrier = ~std::uint64_t{0};
  ckpt::SnapshotPlane plane;
  std::uint64_t epoch = 0;
  const ckpt::StreamSnapshot* restore_src = nullptr;  // ctor-time borrow
  mutable std::mutex snap_mu;  // mutable: metrics reads it from const
  bool snap_active = false;        // guarded by snap_mu
  std::uint64_t snap_barrier = 0;  // guarded by snap_mu
  double snap_begin_seconds = 0;   // guarded by snap_mu
  std::uint64_t snapshots_taken = 0;    // guarded by snap_mu
  double last_snapshot_seconds = 0;     // guarded by snap_mu
  // Barrier generation: bumped by begin() before any marker is injected, so
  // a marker racing to a tap always acks under the generation that sent it.
  std::atomic<std::uint64_t> snap_gen{0};
  // Per input port, guarded by port_mus[i]:
  std::vector<std::unique_ptr<std::mutex>> port_mus;
  std::vector<std::uint64_t> armed_marker;  // kNoBarrier = none armed
  std::vector<std::uint64_t> port_cut_seq;
  std::vector<std::uint8_t> port_cut_closed;
  // Per output port, guarded by egress_mus[j] (tap_residue additionally
  // only ever written under snap_mu, so assembly reads it without the tap
  // lock -- a caller parked in next() holds egress_mus[j] indefinitely):
  std::vector<std::unique_ptr<std::mutex>> egress_mus;
  std::vector<std::uint64_t> tap_gen;
  std::vector<std::uint8_t> tap_acked;
  std::vector<std::uint8_t> tap_ended_cut;
  std::vector<std::vector<ckpt::TapItem>> tap_residue;
  std::vector<std::deque<OutputPort::Item>> parked;
  std::vector<std::uint8_t> parked_ended;
  std::atomic<std::size_t> tap_acked_count{0};

  Core(const StreamGraph& g,
       std::vector<std::shared_ptr<runtime::Kernel>> session_kernels,
       StreamSpec stream_spec, const ckpt::StreamSnapshot* restore)
      : graph(g),
        kernels(std::move(session_kernels)),
        spec(std::move(stream_spec)),
        restore_src(restore) {
    SDAF_EXPECTS(graph.node_count() > 0);
    SDAF_EXPECTS(spec.feed_capacity >= 1);
    SDAF_EXPECTS(spec.egress_capacity >= 1);
    if (spec.run.metrics != nullptr) {
      registry = spec.run.metrics;
    } else if (spec.metrics) {
      owned_registry = std::make_unique<obs::MetricsRegistry>(
          graph.node_count(), graph.edge_count());
      registry = owned_registry.get();
      spec.run.metrics = registry;
    }
    // An unlimited gauge gates nothing; normalize it away so the push path
    // pays a single null test.
    if (spec.run.credits != nullptr && !spec.run.credits->unlimited()) {
      credits = spec.run.credits;
      credit_releaser.gauge = credits;
    }
    for (const NodeId n : graph.sources()) {
      binding.source_nodes.push_back(n);
      // capacity + 1: the extra slot is reserved for EOS, so close() can
      // never fail for lack of space (data occupancy is capped at
      // feed_capacity by the port push path).
      feed_channels.push_back(std::make_unique<BoundedChannel>(
          spec.feed_capacity + 1));
      feed_signals.push_back(std::make_unique<ProducerSignal>());
      feed_channels.back()->set_producer_signal(feed_signals.back().get());
      if (credits != nullptr)
        feed_channels.back()->set_drain_hook(&credit_releaser);
      binding.feeds.push_back(feed_channels.back().get());
      auto port = std::unique_ptr<InputPort>(new InputPort());
      port->core_ = this;
      port->index_ = inputs.size();
      port->node_ = n;
      inputs.push_back(std::move(port));
    }
    for (const NodeId n : graph.sinks()) {
      binding.sink_nodes.push_back(n);
      if (spec.capture_outputs) {
        egress_channels.push_back(std::make_unique<BoundedChannel>(
            spec.egress_capacity));
        binding.egress.push_back(egress_channels.back().get());
        auto port = std::unique_ptr<OutputPort>(new OutputPort());
        port->core_ = this;
        port->index_ = outputs.size();
        port->node_ = n;
        outputs.push_back(std::move(port));
      } else {
        binding.egress.push_back(nullptr);
      }
    }
    plane.attach(graph.node_count());
    port_mus.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      port_mus.push_back(std::make_unique<std::mutex>());
    armed_marker.assign(inputs.size(), kNoBarrier);
    port_cut_seq.assign(inputs.size(), 0);
    port_cut_closed.assign(inputs.size(), 0);
    egress_mus.reserve(outputs.size());
    for (std::size_t j = 0; j < outputs.size(); ++j)
      egress_mus.push_back(std::make_unique<std::mutex>());
    tap_gen.assign(outputs.size(), 0);
    tap_acked.assign(outputs.size(), 0);
    tap_ended_cut.assign(outputs.size(), 0);
    tap_residue.resize(outputs.size());
    parked.resize(outputs.size());
    parked_ended.assign(outputs.size(), 0);
    if (restore_src != nullptr) apply_restore();
  }

  // The port-facing half of a restore; the engine half (node counters,
  // kernel state, edge baselines, EOS preloads) runs inside the backend
  // engine's construction off RunSpec::restore. Open ports resume at their
  // cut sequence numbers; tap residue is parked for re-delivery ahead of
  // anything the restored sinks emit.
  void apply_restore() {
    const ckpt::StreamSnapshot& snap = *restore_src;
    epoch = snap.epoch + 1;
    SDAF_EXPECTS(snap.ports.size() == inputs.size());
    SDAF_EXPECTS(snap.taps.size() == outputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i]->next_seq_.store(snap.ports[i].next_seq,
                                 std::memory_order_relaxed);
      // A port closed at the cut stays closed; its source was restored done
      // (Session::restore validates that), so no EOS needs re-pushing.
      inputs[i]->closed_ = snap.ports[i].closed != 0;
    }
    for (std::size_t j = 0; j < outputs.size(); ++j) {
      for (const ckpt::TapItem& item : snap.taps[j].residue)
        parked[j].push_back(OutputPort::Item{item.seq, item.value});
      parked_ended[j] = snap.taps[j].ended;
    }
  }

  virtual ~Core() = default;

  [[nodiscard]] RunSpec bound_spec() {
    RunSpec bound = spec.run;
    bound.ports = &binding;
    bound.ckpt_plane = &plane;
    bound.restore = restore_src;
    return bound;
  }

  // --- backend hooks ---------------------------------------------------
  // Sim only: run sweeps now. Pooled: no-op.
  virtual bool pump_now() { return false; }
  // ckpt: edge e's cumulative traffic at the barrier cut -- the producer's
  // marker latch when it forwarded Marker(S), its frozen totals when it
  // finished before the barrier. Only read after the barrier completes.
  [[nodiscard]] virtual ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const = 0;
  // Sim only: cumulative sweeps, so a restored engine resumes the count.
  [[nodiscard]] virtual std::uint64_t sweeps_now() const { return 0; }
  // Pooled only: the pool's per-worker scheduler counters.
  [[nodiscard]] virtual std::vector<obs::WorkerMetrics> worker_metrics()
      const {
    return {};
  }
  // Port transitions. Pushes/pops report the channel's wake-relevant edge.
  virtual void feed_pushed(std::size_t /*i*/, bool /*was_empty*/) {}
  virtual void feed_closed(std::size_t /*i*/) {}
  virtual void egress_popped(std::size_t /*i*/, bool /*was_full*/) {}
  // Blocking helpers: return true = state may have changed, retry; false =
  // give up (aborted, deadline passed, or -- Sim -- no progress possible).
  // A null deadline waits forever (the classic push() path).
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;
  virtual bool wait_feed_space(std::size_t i, const Deadline& deadline);
  virtual bool wait_egress_item(std::size_t i);
  // Blocks until the tenant gauge may have credit again (same wake-elision
  // protocol as wait_feed_space, parked on the gauge's event word). The
  // park is insurance-bounded: credits held by a stream that aborts come
  // back through finish(), which never bumps this gauge's event, so a
  // bounded park plus the caller's re-probe (which observes the abort)
  // keeps a parked pusher from sleeping forever. Sim pumps instead.
  virtual bool wait_credit(const Deadline& deadline);
  // After every port is closed and the taps are drained: the final report.
  virtual RunReport collect() = 0;

  // --- shared port logic -----------------------------------------------
  // NoCredit is distinct from NoSpace so the blocking paths park on the
  // right event: the tenant gauge for the former, the feed's producer
  // signal for the latter.
  enum class PushStatus { Ok, NoSpace, NoCredit, Ended };

  // Pre: port_mus[i] held, a marker is due now (the barrier armed this port
  // and it just reached S, begin() found it already at S, or close() cuts
  // it short of S). The feed always has physical room: data occupancy is
  // capped at feed_capacity segments, EOS adds one, and a marker rides the
  // ring's extra physical slot -- so Full can only mean a previous barrier's
  // marker is still in flight, which barrier serialization excludes.
  void inject_marker_locked(std::size_t i, std::uint64_t seq) {
    bool was_empty = false;
    const PushResult r = feed_channels[i]->try_push_marker(seq, &was_empty);
    SDAF_ASSERT(r != PushResult::Full);
    armed_marker[i] = kNoBarrier;
    // This port's cut: everything it accepted before its marker (== S for a
    // port that reached the barrier, its final count for one closed short).
    port_cut_seq[i] = inputs[i]->pushed();
    if (r == PushResult::Ok) feed_pushed(i, was_empty);
  }

  PushStatus push_message(InputPort& port, Message& m) {
    const std::size_t i = port.index_;
    BoundedChannel& feed = *feed_channels[i];
    // Tenant credit gates BEFORE channel space: a tenant at its window
    // parks on its own gauge without ever probing (or filling) the feed.
    // The abort check first keeps a credit-starved pusher from spinning
    // forever on a stream whose credits died with another feed.
    if (credits != nullptr) {
      if (feed.aborted()) return PushStatus::Ended;
      if (!credits->try_acquire(1)) return PushStatus::NoCredit;
      // Charge before the publish: the consumer-side drain decrement can
      // then never precede its increment (see CreditReleaser).
      credit_releaser.charge(1);
    }
    const auto undo = [&](PushStatus s) {
      if (credits != nullptr) credit_releaser.uncharge(1);
      return s;
    };
    std::lock_guard plock(*port_mus[i]);
    if (feed.size() >= spec.feed_capacity)
      return undo(PushStatus::NoSpace);  // data exhausted; EOS slot reserved
    bool was_empty = false;
    switch (feed.try_push(std::move(m), &was_empty)) {
      case PushResult::Ok:
        // Single writer (the port's caller): plain load+store, no RMW.
        port.next_seq_.store(port.pushed() + 1, std::memory_order_relaxed);
        // An armed barrier injects its marker exactly between seq S-1 and
        // seq S, preserving the barrier invariant at the injection point.
        if (armed_marker[i] != kNoBarrier && port.pushed() == armed_marker[i])
          inject_marker_locked(i, armed_marker[i]);
        feed_pushed(i, was_empty);
        return PushStatus::Ok;
      case PushResult::Aborted:
        return undo(PushStatus::Ended);
      case PushResult::Full:
      default:
        return undo(PushStatus::NoSpace);
    }
  }

  bool port_try_push(InputPort& port, Value&& v) {
    if (port.closed_) return false;
    Message m = Message::data(port.pushed(), std::move(v));
    return push_message(port, m) == PushStatus::Ok;
  }

  bool port_push(InputPort& port, Value&& v) {
    return port_push_deadline(port, std::move(v), std::nullopt) ==
           PortPushOutcome::Ok;
  }

  PortPushOutcome port_push_deadline(InputPort& port, Value&& v,
                                 const Deadline& deadline) {
    if (port.closed_) return PortPushOutcome::Ended;
    Message m = Message::data(port.pushed(), std::move(v));
    for (;;) {
      switch (push_message(port, m)) {
        case PushStatus::Ok:
          return PortPushOutcome::Ok;
        case PushStatus::Ended:
          return PortPushOutcome::Ended;
        case PushStatus::NoSpace:
          if (!wait_feed_space(port.index_, deadline))
            return feed_channels[port.index_]->aborted() ? PortPushOutcome::Ended
                                                         : PortPushOutcome::TimedOut;
          break;
        case PushStatus::NoCredit:
          if (!wait_credit(deadline))
            return feed_channels[port.index_]->aborted() ? PortPushOutcome::Ended
                                                         : PortPushOutcome::TimedOut;
          break;
      }
    }
  }

  // The bulk-ingest fast path: all sequence numbers are assigned up front,
  // then each round stages as many messages as the feed has data room for
  // and lands them with one BoundedChannel::try_push_batch (one ring
  // reservation + one publish + one wake). Traffic is bit-identical to
  // item-at-a-time push() -- same seqs, same channel contents, one
  // empty->non-empty wake edge instead of many redundant ones.
  std::size_t port_push_batch(InputPort& port, std::vector<Value> values,
                              const Deadline& deadline) {
    if (port.closed_ || values.empty()) return 0;
    std::vector<Message> msgs;
    msgs.reserve(values.size());
    std::uint64_t seq = port.pushed();
    for (auto& v : values) msgs.push_back(Message::data(seq++, std::move(v)));
    std::size_t done = 0;
    const std::size_t i = port.index_;
    BoundedChannel& feed = *feed_channels[i];
    for (;;) {
      bool aborted = false;
      std::size_t n = 0;
      // Credit gates the round like the single-item path: grab as many as
      // the gauge allows (charged up front so drains never outrun their
      // charges), push what also fits the feed, hand back the rest.
      std::uint64_t credit = 0;
      if (credits != nullptr) {
        if (feed.aborted()) break;
        credit = credits->try_acquire_upto(msgs.size() - done);
        if (credit == 0) {
          if (!wait_credit(deadline)) break;
          continue;
        }
        credit_releaser.charge(credit);
      }
      {
        std::lock_guard plock(*port_mus[i]);
        // Data occupancy is capped at feed_capacity (the ring's extra slot
        // is reserved for EOS); size() only shrinks under the caller's
        // feet, so `room` is a safe underestimate.
        const std::size_t occ = feed.size();
        const std::size_t room =
            occ >= spec.feed_capacity ? 0 : spec.feed_capacity - occ;
        std::size_t want = msgs.size() - done;
        if (credits != nullptr)
          want = std::min<std::size_t>(want, static_cast<std::size_t>(credit));
        // An armed barrier splits the batch at S: stage up to the marker's
        // slot, inject it, then the next round continues past it.
        if (armed_marker[i] != kNoBarrier)
          want = std::min<std::size_t>(
              want, static_cast<std::size_t>(armed_marker[i] - port.pushed()));
        if (room > 0 && want > 0) {
          bool was_empty = false;
          n = feed.try_push_batch(msgs.data() + done, std::min(room, want),
                                  &was_empty, &aborted);
          if (n > 0) {
            done += n;
            port.next_seq_.store(port.pushed() + n, std::memory_order_relaxed);
            if (armed_marker[i] != kNoBarrier &&
                port.pushed() == armed_marker[i])
              inject_marker_locked(i, armed_marker[i]);
            feed_pushed(i, was_empty);
          }
        }
      }
      if (credits != nullptr && credit > n)
        credit_releaser.uncharge(credit - n);
      if (aborted || done == msgs.size()) break;
      if (n > 0) continue;
      if (!wait_feed_space(i, deadline)) break;
    }
    return done;
  }

  void port_close(InputPort& port) {
    if (port.closed_) return;
    const std::size_t i = port.index_;
    std::lock_guard plock(*port_mus[i]);
    // A port closed short of an armed barrier cuts at its final count: its
    // marker precedes the EOS, so everything it ever accepted is below the
    // cut and the barrier invariant holds with next_seq < S.
    if (armed_marker[i] != kNoBarrier)
      inject_marker_locked(i, armed_marker[i]);
    port.closed_ = true;
    BoundedChannel& feed = *feed_channels[i];
    // The reserved slot makes this infallible unless the stream already
    // aborted (then the EOS is moot anyway).
    const PushResult r = feed.try_push(Message::eos());
    SDAF_ASSERT(r != PushResult::Full);
    feed_closed(i);
  }

  // Lazily aligns tap j's cut state with the current barrier generation
  // (begin() bumps the generation; the taps reset on first touch instead of
  // begin() taking every tap lock -- a caller parked in next() holds its
  // tap's lock indefinitely). Pre: egress_mus[j] held.
  void tap_sync_locked(std::size_t j) {
    const std::uint64_t gen = snap_gen.load(std::memory_order_acquire);
    if (tap_gen[j] == gen) return;
    tap_gen[j] = gen;
    tap_acked[j] = 0;
    tap_ended_cut[j] = 0;
    tap_residue[j].clear();
    // A tap whose EOS was consumed before the barrier began is already at
    // its final cut: no marker will arrive (the sink finished), ack now.
    if (outputs[j]->ended_) ack_tap_locked(j, /*ended=*/true);
  }

  // Pre: egress_mus[j] held and tap_sync_locked(j) ran this touch. The
  // release increment pairs with assembly's acquire read, publishing the
  // frozen tap cut (ended flag + residue).
  void ack_tap_locked(std::size_t j, bool ended) {
    if (tap_acked[j] != 0) return;
    tap_acked[j] = 1;
    tap_ended_cut[j] = ended ? 1 : 0;
    tap_acked_count.fetch_add(1, std::memory_order_release);
  }

  std::optional<OutputPort::Item> port_poll_once(OutputPort& port) {
    std::lock_guard elock(*egress_mus[port.index_]);
    return port_poll_once_locked(port);
  }

  std::optional<OutputPort::Item> port_poll_once_locked(OutputPort& port) {
    const std::size_t j = port.index_;
    // Restored tap residue (and items the snapshot reaper parked to surface
    // a marker) delivers ahead of anything in the live ring -- it is older.
    if (!parked[j].empty()) {
      OutputPort::Item item = std::move(parked[j].front());
      parked[j].pop_front();
      return item;
    }
    if (parked_ended[j] != 0) {
      // The cut saw this tap's EOS; the restored sink is done and will not
      // flood another one into the new ring.
      port.ended_ = true;
      return std::nullopt;
    }
    if (port.ended_) return std::nullopt;
    BoundedChannel& egress = *egress_channels[j];
    for (;;) {
      const auto head = egress.try_peek_head();
      if (!head.has_value()) {
        if (egress.aborted()) port.ended_ = true;
        return std::nullopt;
      }
      if (head->kind == MessageKind::Dummy) {
        // Interior dummies reaching the tap (propagation-mode forwarding)
        // carry no caller-visible payload; drop the whole run in one op.
        const auto run = egress.pop_dummies(head->run);
        egress_popped(j, run.was_full);
        continue;
      }
      if (head->kind == MessageKind::Marker) {
        // The tap's barrier marker: invisible to the caller. Everything the
        // caller popped before it was delivered (needs no residue);
        // acknowledge the tap's cut and keep polling.
        const bool was_full = egress.pop();
        egress_popped(j, was_full);
        tap_sync_locked(j);
        ack_tap_locked(j, /*ended=*/false);
        continue;
      }
      if (head->kind == MessageKind::Eos) {
        // EOS racing a pending barrier: the sink finished before (or while)
        // consuming its markers -- either way no marker follows, so this IS
        // the tap's cut.
        tap_sync_locked(j);
        ack_tap_locked(j, /*ended=*/true);
        const bool was_full = egress.pop();
        egress_popped(j, was_full);
        port.ended_ = true;
        return std::nullopt;
      }
      bool was_full = false;
      Message m = egress.pop_head(&was_full);
      egress_popped(j, was_full);
      return OutputPort::Item{m.seq, std::move(m.payload)};
    }
  }

  std::optional<OutputPort::Item> port_poll(OutputPort& port) {
    auto item = port_poll_once(port);
    if (!item.has_value() && !port.ended_ && pump_now())
      item = port_poll_once(port);
    return item;
  }

  std::optional<OutputPort::Item> port_next(OutputPort& port) {
    // Holds the tap lock across the park: the wait peeks the ring, which is
    // a consumer-side op that must not race the snapshot reaper (whose
    // try_lock simply skips a tap its caller owns).
    std::lock_guard elock(*egress_mus[port.index_]);
    for (;;) {
      if (auto item = port_poll_once_locked(port); item.has_value())
        return item;
      if (port.ended_) return std::nullopt;
      if (!wait_egress_item(port.index_)) return std::nullopt;
    }
  }

  // Discard whatever is still on the taps until every tap saw EOS (or the
  // run aborted): with the taps kept drained the EOS flood can always
  // complete, and on deadlock the backend aborts the taps, which ends the
  // loop too.
  virtual void drain_taps() {
    using namespace std::chrono_literals;
    for (;;) {
      bool all_ended = true;
      bool any = false;
      for (auto& port : outputs) {
        while (port_poll_once(*port).has_value()) any = true;
        all_ended &= port->ended_;
      }
      if (all_ended) return;
      if (!any) std::this_thread::sleep_for(200us);
    }
  }

  // --- barrier lifecycle (Stream::snapshot_*) ---------------------------

  bool snapshot_begin() {
    std::lock_guard slock(snap_mu);
    if (collected) return false;
    if (snap_active || plane.pending()) return false;
    // Generation first: a marker that races through a shallow graph to a
    // tap before begin() returns must ack under the new generation.
    snap_gen.fetch_add(1, std::memory_order_release);
    tap_acked_count.store(0, std::memory_order_relaxed);
    // Hold every feed's producer side while choosing S and injecting, so no
    // port can slip an item with seq >= S underneath an injected marker.
    std::vector<std::unique_lock<std::mutex>> plocks;
    plocks.reserve(port_mus.size());
    for (auto& m : port_mus) plocks.emplace_back(*m);
    // S = max over ALL ports (open and closed) of items accepted: closed
    // ports forward no marker, so every message they ever contributed must
    // sit below the cut for downstream alignment to hold.
    std::uint64_t barrier = 0;
    for (const auto& port : inputs) barrier = std::max(barrier, port->pushed());
    const bool begun = plane.begin(barrier);
    SDAF_ASSERT(begun);
    snap_barrier = barrier;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      InputPort& port = *inputs[i];
      if (port.closed_) {
        // No marker: the source drains to EOS and reports through the
        // plane's finished set (its feed holds only seqs < S by choice of
        // S, plus the EOS).
        port_cut_closed[i] = 1;
        port_cut_seq[i] = port.pushed();
        continue;
      }
      port_cut_closed[i] = 0;
      if (port.pushed() == barrier)
        inject_marker_locked(i, barrier);
      else
        armed_marker[i] = barrier;  // inject exactly when it reaches S
    }
    snap_active = true;
    snap_begin_seconds = clock.elapsed_seconds();
    return true;
  }

  // Reap tap markers that idle output ports have not consumed: for each
  // unacked tap we can lock (try_lock -- a caller inside a port call owns
  // the tap and will process its marker itself), pop ahead of the marker,
  // parking Data items for later delivery and recording them as the cut's
  // residue (popped-but-undelivered at the cut). Pre: snap_mu held.
  void reap_tap_markers() {
    for (std::size_t j = 0; j < outputs.size(); ++j) {
      std::unique_lock elock(*egress_mus[j], std::try_to_lock);
      if (!elock.owns_lock()) continue;
      tap_sync_locked(j);
      if (tap_acked[j] != 0 || parked_ended[j] != 0 || outputs[j]->ended_)
        continue;
      BoundedChannel& egress = *egress_channels[j];
      for (;;) {
        const auto head = egress.try_peek_head();
        if (!head.has_value()) break;
        if (head->kind == MessageKind::Marker) {
          const bool was_full = egress.pop();
          egress_popped(j, was_full);
          ack_tap_locked(j, /*ended=*/false);
          break;
        }
        if (head->kind == MessageKind::Eos) {
          // Leave the EOS for the caller's poll (ended() flips there); the
          // cut records the tap as ended either way.
          ack_tap_locked(j, /*ended=*/true);
          break;
        }
        if (head->kind == MessageKind::Dummy) {
          const auto run = egress.pop_dummies(head->run);
          egress_popped(j, run.was_full);
          continue;
        }
        bool was_full = false;
        Message m = egress.pop_head(&was_full);
        egress_popped(j, was_full);
        tap_residue[j].push_back(ckpt::TapItem{m.seq, m.payload});
        parked[j].push_back(OutputPort::Item{m.seq, std::move(m.payload)});
      }
    }
  }

  std::optional<ckpt::StreamSnapshot> snapshot_poll() {
    std::lock_guard slock(snap_mu);
    if (!snap_active) return std::nullopt;
    (void)pump_now();  // Sim: markers only advance on the caller's thread
    reap_tap_markers();
    if (!plane.nodes_complete()) return std::nullopt;
    if (tap_acked_count.load(std::memory_order_acquire) != outputs.size())
      return std::nullopt;
    return assemble_snapshot();
  }

  // Pre: snap_mu held, every node checkpointed/finished, every tap acked.
  ckpt::StreamSnapshot assemble_snapshot() {
    ckpt::StreamSnapshot snap;
    snap.signature = snapshot_signature(graph, spec.run);
    snap.epoch = epoch;
    snap.barrier_seq = snap_barrier;
    snap.sweeps = sweeps_now();
    snap.nodes = plane.take_cuts();
    snap.edges.reserve(graph.edge_count());
    for (EdgeId e = 0; e < static_cast<EdgeId>(graph.edge_count()); ++e)
      snap.edges.push_back(
          edge_cut_at(e, /*producer_checkpointed=*/
                      snap.nodes[graph.edge(e).from].done == 0));
    snap.ports.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Brief lock: port mutex holders never block (pushes park outside).
      std::lock_guard plock(*port_mus[i]);
      snap.ports.push_back(ckpt::PortCut{port_cut_closed[i], port_cut_seq[i]});
    }
    snap.taps.reserve(outputs.size());
    for (std::size_t j = 0; j < outputs.size(); ++j) {
      // No tap lock (a parked next() caller holds one indefinitely): the
      // residue is written only under snap_mu, and the ended flag was
      // published by the ack's release increment.
      snap.taps.push_back(
          ckpt::TapCut{tap_ended_cut[j], std::move(tap_residue[j])});
      tap_residue[j].clear();
    }
    snap_active = false;
    ++snapshots_taken;
    last_snapshot_seconds = clock.elapsed_seconds() - snap_begin_seconds;
    return snap;
  }

  std::optional<ckpt::StreamSnapshot> snapshot_wait(
      std::chrono::milliseconds timeout) {
    (void)snapshot_begin();  // false = already pending; poll that barrier
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (auto snap = snapshot_poll(); snap.has_value()) return snap;
      {
        std::lock_guard slock(snap_mu);
        if (!snap_active) return std::nullopt;  // never begun (finished)
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  [[nodiscard]] obs::MetricsSnapshot take_snapshot() const {
    obs::MetricsSnapshot s;
    if (registry != nullptr) {
      obs::SnapshotOptions opts;
      opts.backend = to_string(spec.run.backend);
      opts.tenant = spec.run.tenant;
      opts.wall_seconds = clock.elapsed_seconds();
      opts.bytes_per_slot = sizeof(Message);
      s = obs::snapshot(graph, *registry, opts);
    } else {
      s.backend = to_string(spec.run.backend);
      s.tenant.tenant = spec.run.tenant;
      s.tenant.wall_seconds = clock.elapsed_seconds();
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      obs::PortMetrics p;
      p.node = inputs[i]->node();
      p.name = graph.node_name(p.node);
      p.input = true;
      p.pushed = inputs[i]->pushed();
      p.occupancy = feed_channels[i]->size();
      p.capacity = spec.feed_capacity;
      s.ports.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      obs::PortMetrics p;
      p.node = outputs[i]->node();
      p.name = graph.node_name(p.node);
      p.input = false;
      p.pushed = egress_channels[i]->stats().data_pushed;
      p.occupancy = egress_channels[i]->size();
      p.capacity = spec.egress_capacity;
      s.ports.push_back(std::move(p));
    }
    s.workers = worker_metrics();
    {
      std::lock_guard slock(snap_mu);
      s.ckpt.epoch = epoch;
      s.ckpt.snapshots_taken = snapshots_taken;
      s.ckpt.snapshot_pending = snap_active;
      s.ckpt.last_snapshot_seconds = last_snapshot_seconds;
    }
    return s;
  }

  RunReport finish() {
    SDAF_EXPECTS(!collected);
    {
      // A pending barrier dies with the stream: in-flight markers drain as
      // stale (the plane drops their checkpoints after abort_barrier).
      std::lock_guard slock(snap_mu);
      collected = true;
      snap_active = false;
      plane.abort_barrier();
    }
    for (auto& port : inputs) port_close(*port);
    drain_taps();
    RunReport report = collect();
    // The engine is quiesced: every drain hook that will ever fire has
    // fired. Whatever this stream still holds (items left in feeds by a
    // deadlock or abort) goes back to the tenant's window now, so one
    // wedged stream cannot leak its co-streams' credits forever.
    if (credits != nullptr) credit_releaser.release_rest();
    return report;
  }

  // Stream::finish's addition to a deadlock dump: port occupancies.
  void append_port_dump(RunReport* report) const {
    std::ostringstream out;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      out << "port feed " << graph.node_name(binding.source_nodes[i]) << " "
          << feed_channels[i]->size() << "/" << spec.feed_capacity
          << (inputs[i]->closed_ ? " closed" : " open") << "\n";
    for (std::size_t i = 0; i < outputs.size(); ++i)
      out << "port egress " << graph.node_name(outputs[i]->node_) << " "
          << egress_channels[i]->size() << "/" << spec.egress_capacity
          << (outputs[i]->ended_ ? " ended" : "") << "\n";
    report->state_dump += out.str();
  }
};

bool Core::wait_feed_space(std::size_t i, const Deadline& deadline) {
  // Wake-elision protocol (see runtime::ProducerSignal): register as a
  // waiter on the feed's ProducerSignal (every consumer pop bumps it),
  // re-check, then park futex-style on the captured version -- bounded by
  // the absolute deadline when the caller asked for timed parking. The
  // caller loops, so a spurious wake-up (version moved but no space yet)
  // just re-probes. See runtime::ProducerSignal::bump.
  BoundedChannel& feed = *feed_channels[i];
  ProducerSignal& sig = *feed_signals[i];
  const std::uint32_t version = sig.event.capture();
  sig.event.register_waiter();
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const bool space = feed.size() < spec.feed_capacity;
  bool timed_out = false;
  if (!space && !feed.aborted() &&
      !sig.aborted.load(std::memory_order_acquire)) {
    if (deadline.has_value())
      timed_out = !runtime::ParkingLot::park_until(sig.event.version, version,
                                                   *deadline);
    else
      runtime::ParkingLot::park(sig.event.version, version);
  }
  sig.event.unregister_waiter();
  return !feed.aborted() && !timed_out;
}

bool Core::wait_egress_item(std::size_t i) {
  // Blocks in the channel itself (every producer push notifies); empty
  // optional iff the tap was aborted.
  return egress_channels[i]->peek_head_wait().has_value();
}

bool Core::wait_credit(const Deadline& deadline) {
  // Wake-elision protocol against the tenant gauge: capture -> register
  // (seq_cst RMW) -> fence -> re-check -> park on the captured version.
  // Every release() fences then bumps-if-waiters, so a parked pusher never
  // misses a returned credit. The park carries 50ms insurance on top of
  // any caller deadline: a co-stream that aborts returns its credits via
  // finish() without bumping this event, and the re-probe upstream is what
  // observes the abort.
  using namespace std::chrono_literals;
  runtime::EventWord& ev = credits->event();
  const std::uint32_t version = ev.capture();
  ev.register_waiter();
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool timed_out = false;
  if (credits->in_flight() >= credits->limit()) {
    auto until = std::chrono::steady_clock::now() + 50ms;
    if (deadline.has_value() && *deadline < until) until = *deadline;
    (void)runtime::ParkingLot::park_until(ev.version, version, until);
    timed_out =
        deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
  }
  ev.unregister_waiter();
  return !timed_out;
}

// ---------------------------------------------------------------- Sim ---
// Single-threaded: the caller's own thread runs the deterministic sweeps.
// Ports never block -- "waiting" means pumping, and a pump with no progress
// tells the caller nothing more can happen without new input.
struct SimCore final : Core {
  std::unique_ptr<sim::SweepEngine> engine;

  SimCore(const StreamGraph& g,
          std::vector<std::shared_ptr<runtime::Kernel>> k, StreamSpec s,
          const ckpt::StreamSnapshot* restore)
      : Core(g, std::move(k), std::move(s), restore) {
    engine = std::make_unique<sim::SweepEngine>(graph, kernels, bound_spec());
    restore_src = nullptr;  // borrow ends with engine construction
  }

  bool pump_now() override { return engine->pump(); }
  [[nodiscard]] ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const override {
    return engine->edge_cut(e, producer_checkpointed);
  }
  [[nodiscard]] std::uint64_t sweeps_now() const override {
    return engine->sweeps();
  }
  bool wait_feed_space(std::size_t i, const Deadline& /*deadline*/) override {
    // "Waiting" on the Sim backend means pumping on the caller's thread; a
    // pump with no progress already answers a deadline caller (the graph
    // cannot absorb the item no matter how long it waits), so the deadline
    // itself is moot.
    return engine->pump() && !feed_channels[i]->aborted();
  }
  bool wait_egress_item(std::size_t /*i*/) override { return engine->pump(); }
  bool wait_credit(const Deadline& /*deadline*/) override {
    // The feed consumers run on this thread: pumping is what returns
    // credits. A pump with no progress means no credit will ever free
    // without new polls, so give up (same contract as wait_feed_space).
    return engine->pump();
  }

  void drain_taps() override {
    for (;;) {
      bool any = false;
      for (auto& port : outputs)
        while (port_poll_once(*port).has_value()) any = true;
      const bool pumped = engine->pump();
      if (engine->all_done()) {
        // One last drain so collect() leaves no tap contents behind.
        for (auto& port : outputs)
          while (port_poll_once(*port).has_value()) {
          }
        return;
      }
      if (!pumped && !any) return;  // wedged (or sweep budget exhausted)
    }
  }

  RunReport collect() override {
    const bool deadlocked =
        !engine->all_done() && engine->sweeps() < spec.run.max_sweeps;
    RunReport report = engine->report(deadlocked);
    report.wall_seconds = clock.elapsed_seconds();
    return report;
  }
};

// ------------------------------------------------------------- Pooled ---
// Node tasks on a worker pool; port transitions become task wake-ups
// through the PoolExecutor stream hooks, and the pool's quiescence rule
// ("quiescent and no port has pending items") keeps the deadlock verdict
// exact while ports are open.
struct PooledCore final : Core {
  std::unique_ptr<runtime::PoolExecutor> owned_pool;
  runtime::PoolExecutor* pool = nullptr;
  runtime::PoolExecutor::TicketId ticket = 0;
  runtime::PoolExecutor::StreamHandle handle;

  PooledCore(const StreamGraph& g,
             std::vector<std::shared_ptr<runtime::Kernel>> k, StreamSpec s,
             const ckpt::StreamSnapshot* restore)
      : Core(g, std::move(k), std::move(s), restore) {
    if (spec.run.pool != nullptr) {
      pool = spec.run.pool;
    } else {
      runtime::PoolExecutor::Options popt;
      popt.workers = spec.run.pool_workers;
      owned_pool = std::make_unique<runtime::PoolExecutor>(popt);
      pool = owned_pool.get();
    }
    ticket = pool->submit(graph, kernels, bound_spec());
    handle = pool->stream_handle(ticket);
    restore_src = nullptr;  // borrow ends with submit
    // Ports restored closed (their sources restored done) never call
    // feed_closed; report them so the quiescence rule sees the
    // right open-port count.
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (inputs[i]->closed()) {
        runtime::PoolExecutor::stream_port_closed(handle);
        runtime::PoolExecutor::stream_wake(handle, binding.source_nodes[i]);
      }
  }

  void feed_pushed(std::size_t i, bool was_empty) override {
    if (was_empty)
      runtime::PoolExecutor::stream_wake(handle, binding.source_nodes[i]);
  }

  void feed_closed(std::size_t i) override {
    // Close protocol (see PoolExecutor::Instance): EOS already pushed by
    // port_close, then the decrement, then the wake -- so a quiescent
    // observer that reads the decrement also sees the EOS.
    runtime::PoolExecutor::stream_port_closed(handle);
    runtime::PoolExecutor::stream_wake(handle, binding.source_nodes[i]);
  }

  void egress_popped(std::size_t i, bool was_full) override {
    if (was_full)
      runtime::PoolExecutor::stream_wake(handle, outputs[i]->node());
  }

  [[nodiscard]] std::vector<obs::WorkerMetrics> worker_metrics()
      const override {
    return pool->worker_metrics();
  }

  [[nodiscard]] ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const override {
    return runtime::PoolExecutor::stream_edge_cut(handle, e,
                                                  producer_checkpointed);
  }

  RunReport collect() override {
    RunReport report = pool->wait(ticket);
    handle.reset();
    return report;
  }
};

std::unique_ptr<Core> make_core(const StreamGraph& graph,
                                std::vector<std::shared_ptr<runtime::Kernel>>
                                    kernels,
                                StreamSpec spec,
                                const ckpt::StreamSnapshot* restore) {
  switch (spec.run.backend) {
    case Backend::Sim:
      return std::make_unique<SimCore>(graph, std::move(kernels),
                                       std::move(spec), restore);
    case Backend::Pooled:
      return std::make_unique<PooledCore>(graph, std::move(kernels),
                                          std::move(spec), restore);
  }
  SDAF_ASSERT(false && "unknown backend");
  return nullptr;
}

}  // namespace stream_detail

using stream_detail::Core;

bool InputPort::push(runtime::Value v) {
  return core_->port_push(*this, std::move(v));
}

bool InputPort::try_push(runtime::Value v) {
  return core_->port_try_push(*this, std::move(v));
}

PortPushOutcome InputPort::try_push_for(runtime::Value v,
                                    std::chrono::nanoseconds timeout) {
  // timeout <= 0: a deadline already in the past -- one push attempt, no
  // park (try_push semantics with the three-way status).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::max(timeout, std::chrono::nanoseconds::zero());
  return core_->port_push_deadline(*this, std::move(v), deadline);
}

std::size_t InputPort::push_batch(std::vector<runtime::Value> values) {
  return core_->port_push_batch(*this, std::move(values), std::nullopt);
}

std::size_t InputPort::push_batch_for(std::vector<runtime::Value> values,
                                      std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::max(timeout, std::chrono::nanoseconds::zero());
  return core_->port_push_batch(*this, std::move(values), deadline);
}

void InputPort::close() { core_->port_close(*this); }

std::optional<OutputPort::Item> OutputPort::poll() {
  return core_->port_poll(*this);
}

std::size_t OutputPort::poll_batch(std::vector<Item>* out, std::size_t max) {
  SDAF_EXPECTS(out != nullptr);
  std::size_t appended = 0;
  while (appended < max) {
    auto item = core_->port_poll(*this);
    if (!item.has_value()) break;
    out->push_back(std::move(*item));
    ++appended;
  }
  return appended;
}

std::optional<OutputPort::Item> OutputPort::next() {
  return core_->port_next(*this);
}

Stream::Stream(std::unique_ptr<stream_detail::Core> core)
    : core_(std::move(core)) {}

Stream::Stream(Stream&& other) noexcept = default;

Stream::~Stream() {
  if (core_ != nullptr && !core_->collected) (void)core_->finish();
}

std::size_t Stream::input_count() const { return core_->inputs.size(); }

InputPort& Stream::input(std::size_t i) {
  SDAF_EXPECTS(i < core_->inputs.size());
  return *core_->inputs[i];
}

InputPort& Stream::input_for(NodeId source) {
  for (auto& port : core_->inputs)
    if (port->node() == source) return *port;
  SDAF_EXPECTS(false && "no input port for node");
  return *core_->inputs.front();
}

std::size_t Stream::output_count() const { return core_->outputs.size(); }

OutputPort& Stream::output(std::size_t i) {
  SDAF_EXPECTS(i < core_->outputs.size());
  return *core_->outputs[i];
}

OutputPort& Stream::output_for(NodeId sink) {
  for (auto& port : core_->outputs)
    if (port->node() == sink) return *port;
  SDAF_EXPECTS(false && "no output port for node");
  return *core_->outputs.front();
}

void Stream::pump() { (void)core_->pump_now(); }

obs::MetricsSnapshot Stream::metrics() const { return core_->take_snapshot(); }

bool Stream::snapshot_begin() { return core_->snapshot_begin(); }

std::optional<ckpt::StreamSnapshot> Stream::snapshot_poll() {
  return core_->snapshot_poll();
}

std::optional<ckpt::StreamSnapshot> Stream::snapshot(
    std::chrono::milliseconds timeout) {
  return core_->snapshot_wait(timeout);
}

std::uint64_t Stream::epoch() const { return core_->epoch; }

RunReport Stream::finish() {
  RunReport report = core_->finish();
  if (report.deadlocked) core_->append_port_dump(&report);
  return report;
}

// Defined here (not session.cpp) so the concrete cores stay file-local.
Stream Session::open(StreamSpec spec) {
  return Stream(stream_detail::make_core(graph_, kernels_, std::move(spec),
                                         /*restore=*/nullptr));
}

Stream Session::open_batch(const RunSpec& spec) {
  StreamSpec ss;
  ss.run = spec;
  // Room for every token: pushes never park, and on Sim nothing pumps
  // while feeding, so every token is queued before the first sweep.
  ss.feed_capacity =
      static_cast<std::size_t>(std::max<std::uint64_t>(1, spec.num_inputs));
  ss.capture_outputs = false;
  ss.metrics = false;  // spec.run.metrics, when set, still applies
  Stream stream = open(std::move(ss));
  constexpr std::uint64_t kChunk = 4096;  // bounds the staging vector
  for (std::size_t i = 0; i < stream.input_count(); ++i) {
    InputPort& port = stream.input(i);
    for (std::uint64_t fed = 0; fed < spec.num_inputs;) {
      const std::uint64_t want = std::min(kChunk, spec.num_inputs - fed);
      const std::size_t accepted = port.push_batch(
          std::vector<runtime::Value>(static_cast<std::size_t>(want)));
      fed += accepted;
      // Short only under a credit window: the stream ended or, on Sim,
      // wedged. The close below still lets finish() reach the verdict.
      if (accepted < want) break;
    }
    port.close();
  }
  return stream;
}

RunReport Session::finish_batch(Stream& stream) {
  return stream.core_->finish();
}

namespace {
// The reservation a successful admit pinned; releasing is the deleter's
// job so the budget comes back exactly once, when the Stream (which owns
// the lease through its spec) is destroyed.
struct AdmissionTicket {
  qos::Admission& admission;
  std::string tenant;
  qos::TenantCost cost;
  AdmissionTicket(qos::Admission& a, std::string t, const qos::TenantCost& c)
      : admission(a), tenant(std::move(t)), cost(c) {}
  ~AdmissionTicket() { admission.release(tenant, cost); }
};
}  // namespace

Session::OpenDecision Session::open(StreamSpec spec,
                                    qos::Admission& admission) {
  OpenDecision decision;
  // The spec's intervals ARE the compile result (RunSpec::apply), so the
  // cost model needs no separate CompileResult here; an empty vector
  // (avoidance off) predicts zero dummy overhead over the raw buffers.
  decision.predicted = qos::estimate(graph_, spec.run.intervals);
  if (auto rejected = admission.admit(spec.run.tenant, decision.predicted)) {
    decision.rejected = std::move(rejected);
    return decision;
  }
  spec.lease = std::make_shared<AdmissionTicket>(admission, spec.run.tenant,
                                                 decision.predicted);
  decision.stream.emplace(Stream(stream_detail::make_core(
      graph_, kernels_, std::move(spec), /*restore=*/nullptr)));
  return decision;
}

std::optional<Stream> Session::restore(StreamSpec spec,
                                       const ckpt::StreamSnapshot& snapshot) {
  if (snapshot.version != ckpt::kSnapshotVersion) return std::nullopt;
  if (snapshot.signature != stream_detail::snapshot_signature(graph_, spec.run))
    return std::nullopt;
  if (snapshot.nodes.size() != graph_.node_count()) return std::nullopt;
  if (snapshot.edges.size() != graph_.edge_count()) return std::nullopt;
  const auto& sources = graph_.sources();
  if (snapshot.ports.size() != sources.size()) return std::nullopt;
  const std::size_t want_taps =
      spec.capture_outputs ? graph_.sinks().size() : 0;
  if (snapshot.taps.size() != want_taps) return std::nullopt;
  // Internal consistency: a port closed at the cut implies its source was
  // cut done (a closed feed carries no marker, so the barrier can only have
  // completed through the source finishing). Reject blobs that violate it
  // -- apply_restore leans on the EOS having fully flooded.
  for (std::size_t i = 0; i < snapshot.ports.size(); ++i)
    if (snapshot.ports[i].closed != 0 && snapshot.nodes[sources[i]].done == 0)
      return std::nullopt;
  return Stream(
      stream_detail::make_core(graph_, kernels_, std::move(spec), &snapshot));
}

}  // namespace sdaf::exec
