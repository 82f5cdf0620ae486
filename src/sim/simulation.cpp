#include "src/sim/simulation.h"

#include <algorithm>
#include <optional>

#include "src/exec/firing_core.h"
#include "src/runtime/channel.h"
#include "src/runtime/message_ring.h"
#include "src/support/contracts.h"

namespace sdaf::sim {

using runtime::BoundedChannel;
using runtime::HeadView;
using runtime::kInfiniteInterval;
using runtime::Message;
using runtime::MessageKind;
using runtime::MessageRing;
using runtime::NodeWrapper;
using runtime::PushResult;

namespace {

// One edge's buffer: the shared coalescing ring plus traffic accounting.
// Logical occupancy (a run of k dummies counts k) drives full()/capacity,
// so buffer-size semantics match the pooled backend exactly.
struct SimChannel {
  explicit SimChannel(std::size_t capacity) : ring(capacity) {}

  MessageRing ring;
  exec::EdgeTraffic traffic;
  obs::ChannelCounters* metrics = nullptr;
  // Edge cut latched at the marker crossing (ckpt): cumulative traffic the
  // moment Marker(S) entered this channel. Single-threaded, so a plain
  // producer-side store is the exact analogue of BoundedChannel's latch.
  std::uint64_t cut_data = 0;
  std::uint64_t cut_dummies = 0;

  void note_push(std::size_t data, std::size_t dummies) {
    traffic.data += data;
    traffic.dummies += dummies;
    traffic.max_occupancy = std::max(
        traffic.max_occupancy, static_cast<std::int64_t>(ring.size()));
    if (metrics != nullptr) {
      if (data > 0) obs::bump(metrics->data_pushed, data);
      if (dummies > 0) obs::bump(metrics->dummies_pushed, dummies);
      metrics->note_high_water(static_cast<std::int64_t>(ring.size()));
    }
  }

  void note_pop(std::size_t count) {
    if (metrics != nullptr) obs::bump(metrics->pops, count);
  }
};

// Sweep-step sink: an exec::FiringCore over plain rings. Nothing ever
// blocks or wakes; the round-robin sweep in SweepEngine supplies the
// scheduling and the core's step() return value is the progress signal the
// exact deadlock verdict rests on. A source reads the injected `feed`
// BoundedChannel; a tapped sink owns one extra out-slot backed by
// the `egress` BoundedChannel (both drained/refilled by the caller between
// pumps -- single-threaded, so the channel atomics are uncontended).
class SimNode final : private exec::DeliverySink {
 public:
  SimNode(NodeId node, runtime::Kernel& kernel, std::vector<SimChannel*> ins,
          std::vector<SimChannel*> outs, BoundedChannel* feed,
          BoundedChannel* egress, NodeWrapper wrapper, std::uint32_t batch,
          runtime::Tracer* tracer, const std::uint64_t* sweep,
          obs::NodeCounters* metrics)
      : ins_(std::move(ins)),
        outs_(std::move(outs)),
        feed_(feed),
        egress_(egress),
        core_(node, kernel, ins_.size(),
              outs_.size() + (egress != nullptr ? 1 : 0), std::move(wrapper),
              /*num_inputs=*/0, *this, batch, tracer, sweep, metrics) {
    SDAF_EXPECTS((feed_ != nullptr) == ins_.empty());
  }

  // One scheduling quantum; returns true if any progress was made.
  bool step() { return core_.step(); }

  [[nodiscard]] bool done() const { return core_.done(); }
  [[nodiscard]] std::uint64_t fires() const { return core_.fires; }
  [[nodiscard]] std::uint64_t sink_data() const { return core_.sink_data; }
  [[nodiscard]] std::string describe() const { return core_.describe(); }
  [[nodiscard]] std::uint64_t park_summary() const {
    return core_.park_summary();
  }

  // Snapshot/restore plumbing (ckpt): see exec::FiringCore.
  void set_snapshot_plane(ckpt::SnapshotPlane* plane) {
    core_.set_snapshot_plane(plane);
  }
  void restore_cut(const ckpt::NodeCut& cut) { core_.restore_cut(cut); }
  void mark_done() { core_.mark_done(); }

 private:
  std::optional<HeadView> peek_head(std::size_t slot,
                                    bool /*may_wait*/) override {
    SimChannel& ch = *ins_[slot];
    if (ch.ring.empty()) {
      if (ch.metrics != nullptr) obs::bump(ch.metrics->empty_waits);
      return std::nullopt;
    }
    return ch.ring.head();
  }

  Message pop_head(std::size_t slot) override {
    ins_[slot]->note_pop(1);
    return ins_[slot]->ring.pop_head();
  }

  void pop(std::size_t slot) override {
    ins_[slot]->note_pop(1);
    ins_[slot]->ring.pop();
  }

  void pop_dummies(std::size_t slot, std::size_t count) override {
    const std::size_t popped = ins_[slot]->ring.pop_dummies(count);
    SDAF_ASSERT(popped == count);
    ins_[slot]->note_pop(popped);
  }

  exec::PushOutcome try_push(std::size_t slot, Message&& m) override {
    if (slot == outs_.size()) {
      const PushResult result =
          m.kind == MessageKind::Marker
              ? egress_->try_push_marker(m.seq)
              : egress_->try_push(std::move(m));
      switch (result) {
        case PushResult::Ok:
          return exec::PushOutcome::Delivered;
        case PushResult::Aborted:
          return exec::PushOutcome::Aborted;
        case PushResult::Full:
        default:
          return exec::PushOutcome::Blocked;
      }
    }
    SimChannel& ch = *outs_[slot];
    if (m.kind == MessageKind::Marker) {
      // Latch the edge cut, then publish: markers are occupancy-neutral
      // and never count as traffic (see BoundedChannel::try_push_marker).
      ch.cut_data = ch.traffic.data;
      ch.cut_dummies = ch.traffic.dummies;
      return ch.ring.push_marker(m.seq) ? exec::PushOutcome::Delivered
                                        : exec::PushOutcome::Blocked;
    }
    if (ch.ring.full()) {
      if (ch.metrics != nullptr) obs::bump(ch.metrics->full_stalls);
      return exec::PushOutcome::Blocked;
    }
    const bool is_data = m.kind == MessageKind::Data;
    const bool is_dummy = m.kind == MessageKind::Dummy;
    ch.ring.push(std::move(m));
    ch.note_push(is_data ? 1 : 0, is_dummy ? 1 : 0);
    return exec::PushOutcome::Delivered;
  }

  std::size_t try_push_dummies(std::size_t slot, std::uint64_t first_seq,
                               std::size_t count,
                               exec::PushOutcome* outcome) override {
    if (slot == outs_.size()) {
      bool chan_aborted = false;
      const std::size_t accepted = egress_->try_push_dummies(
          first_seq, count, /*was_empty=*/nullptr, &chan_aborted);
      *outcome = chan_aborted ? exec::PushOutcome::Aborted
                 : accepted == count ? exec::PushOutcome::Delivered
                                     : exec::PushOutcome::Blocked;
      return accepted;
    }
    SimChannel& ch = *outs_[slot];
    const std::size_t accepted = ch.ring.push_dummies(first_seq, count);
    if (accepted > 0) ch.note_push(0, accepted);
    if (accepted < count && ch.metrics != nullptr)
      obs::bump(ch.metrics->full_stalls);
    *outcome = accepted == count ? exec::PushOutcome::Delivered
                                 : exec::PushOutcome::Blocked;
    return accepted;
  }

  std::optional<HeadView> peek_feed(bool /*may_wait*/) override {
    return feed_->try_peek_head();
  }

  Message pop_feed() override { return feed_->pop_head(); }

  std::vector<SimChannel*> ins_;
  std::vector<SimChannel*> outs_;
  BoundedChannel* feed_;
  BoundedChannel* egress_;
  exec::FiringCore core_;  // last: its sink is *this
};

}  // namespace

struct SweepEngine::Impl {
  const StreamGraph& graph;
  std::uint64_t max_sweeps;
  std::uint64_t sweeps = 0;
  bool all_done = false;
  runtime::Tracer* tracer = nullptr;  // for the wedged-state dump tail
  std::vector<SimChannel> channels;
  std::vector<std::unique_ptr<SimNode>> nodes;

  explicit Impl(const StreamGraph& g) : graph(g), max_sweeps(0) {}
};

SweepEngine::SweepEngine(
    const StreamGraph& g,
    const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
    const exec::RunSpec& options)
    : impl_(std::make_unique<Impl>(g)) {
  SDAF_EXPECTS(kernels.size() == g.node_count());
  for (const auto& k : kernels) SDAF_EXPECTS(k != nullptr);
  SDAF_EXPECTS(options.ports != nullptr);
  impl_->max_sweeps = options.max_sweeps;
  impl_->tracer = options.tracer;

  const std::size_t edges = g.edge_count();
  std::vector<std::int64_t> intervals = options.intervals;
  if (intervals.empty()) intervals.assign(edges, kInfiniteInterval);
  SDAF_EXPECTS(intervals.size() == edges);

  std::vector<std::uint8_t> forward = options.forward_on_filter;
  if (forward.empty()) forward.assign(edges, 0);
  SDAF_EXPECTS(forward.size() == edges);

  impl_->channels.reserve(edges);
  for (EdgeId e = 0; e < edges; ++e) {
    impl_->channels.emplace_back(
        static_cast<std::size_t>(g.edge(e).buffer));
    if (options.metrics != nullptr)
      impl_->channels.back().metrics = &options.metrics->channel(e);
  }

  impl_->nodes.reserve(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    std::vector<SimChannel*> ins;
    for (const EdgeId e : g.in_edges(n)) ins.push_back(&impl_->channels[e]);
    std::vector<SimChannel*> outs;
    std::vector<std::int64_t> out_intervals;
    std::vector<std::uint8_t> out_forward;
    for (const EdgeId e : g.out_edges(n)) {
      outs.push_back(&impl_->channels[e]);
      out_intervals.push_back(intervals[e]);
      out_forward.push_back(forward[e]);
    }
    BoundedChannel* egress = options.ports->egress_for(n);
    if (egress != nullptr) {
      // The egress tap is one extra out-slot: infinite dummy interval,
      // never continuation-forwarding.
      out_intervals.push_back(kInfiniteInterval);
      out_forward.push_back(0);
    }
    impl_->nodes.push_back(std::make_unique<SimNode>(
        n, *kernels[n], std::move(ins), std::move(outs),
        options.ports->feed_for(n), egress,
        NodeWrapper(options.mode, std::move(out_intervals),
                    std::move(out_forward)),
        options.batch, options.tracer, &impl_->sweeps,
        options.metrics != nullptr ? &options.metrics->node(n) : nullptr));
  }

  if (options.ckpt_plane != nullptr)
    for (auto& node : impl_->nodes)
      node->set_snapshot_plane(options.ckpt_plane);
  if (options.restore != nullptr) {
    const ckpt::StreamSnapshot& snap = *options.restore;
    SDAF_EXPECTS(snap.nodes.size() == g.node_count() &&
                 snap.edges.size() == edges);
    impl_->sweeps = snap.sweeps;  // resume the cumulative sweep count
    for (NodeId n = 0; n < g.node_count(); ++n) {
      impl_->nodes[n]->restore_cut(snap.nodes[n]);
      if (snap.nodes[n].done != 0) impl_->nodes[n]->mark_done();
    }
    for (EdgeId e = 0; e < edges; ++e) {
      SimChannel& ch = impl_->channels[e];
      ch.traffic.data = snap.edges[e].data_pushed;
      ch.traffic.dummies = snap.edges[e].dummies_pushed;
      ch.cut_data = snap.edges[e].data_pushed;
      ch.cut_dummies = snap.edges[e].dummies_pushed;
      // The cut's interior channels are logically empty except for the EOS
      // a pre-barrier-finished producer had flooded; re-create that head so
      // a live consumer still terminates.
      if (snap.nodes[g.edge(e).from].done != 0 &&
          snap.nodes[g.edge(e).to].done == 0)
        ch.ring.push(Message::eos());
    }
  }
}

SweepEngine::~SweepEngine() = default;

bool SweepEngine::pump() {
  Impl& s = *impl_;
  bool pumped = false;
  while (!s.all_done && s.sweeps < s.max_sweeps) {
    bool progress = false;
    bool done = true;
    for (auto& node : s.nodes) {
      progress |= node->step();
      done &= node->done();
    }
    pumped |= progress;
    if (done) {
      s.all_done = true;
      break;  // terminal sweep: not counted, matching the historical loop
    }
    if (!progress) break;  // starved or wedged: also not counted
    ++s.sweeps;
  }
  return pumped;
}

bool SweepEngine::all_done() const { return impl_->all_done; }

std::uint64_t SweepEngine::sweeps() const { return impl_->sweeps; }

ckpt::EdgeCut SweepEngine::edge_cut(EdgeId e,
                                    bool producer_checkpointed) const {
  const SimChannel& ch = impl_->channels[e];
  if (producer_checkpointed) return ckpt::EdgeCut{ch.cut_data, ch.cut_dummies};
  return ckpt::EdgeCut{ch.traffic.data, ch.traffic.dummies};
}

exec::RunReport SweepEngine::report(bool deadlocked) const {
  const Impl& s = *impl_;
  exec::RunReport result;
  result.backend = exec::Backend::Sim;
  result.sweeps = s.sweeps;
  result.completed = s.all_done;
  result.deadlocked = deadlocked;
  if (deadlocked) {
    result.state_dump = exec::dump_wedged_state(
        s.graph,
        [&](EdgeId e) {
          const auto& ch = s.channels[e];
          exec::EdgeDumpInfo info{ch.ring.size(), ch.ring.capacity(),
                                  ch.traffic.data, ch.traffic.dummies,
                                  std::nullopt, std::nullopt};
          if (!ch.ring.empty()) {
            info.head = ch.ring.head_message();
            info.tail = ch.ring.tail_message();
          }
          return info;
        },
        [&](NodeId n) {
          return exec::NodeDumpInfo{s.nodes[n]->describe(),
                                    s.nodes[n]->park_summary()};
        },
        s.tracer);
  }
  result.edges.resize(s.channels.size());
  for (std::size_t e = 0; e < s.channels.size(); ++e)
    result.edges[e] = s.channels[e].traffic;
  result.fires.resize(s.nodes.size());
  result.sink_data.resize(s.nodes.size());
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    result.fires[n] = s.nodes[n]->fires();
    result.sink_data[n] = s.nodes[n]->sink_data();
  }
  return result;
}

}  // namespace sdaf::sim
