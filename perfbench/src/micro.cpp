// Layer microbenchmarks, called through public headers only, plus the
// accounting identity that prices a workload's per-item operation counts
// with them.
#include <atomic>
#include <cstdio>
#include <deque>
#include <functional>
#include <thread>

#include "src/exec/firing_core.h"
#include "src/net/frame.h"
#include "src/runtime/channel.h"
#include "src/runtime/kernel.h"
#include "src/runtime/parking_lot.h"
#include "src/runtime/spsc_ring.h"
#include "src/runtime/wrapper.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdaf;

// Median over `reps` timings of fn(), each returning ns per operation.
double median_of(int reps, const std::function<double()>& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(v);
}

double ns_since(double t0, double ops) { return (now_s() - t0) * 1e9 / ops; }

double ring_op_ns(std::uint64_t ops) {
  runtime::SpscRing ring(64);
  const double t0 = now_s();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (!ring.try_push(runtime::Message::data(
            i, runtime::Value(static_cast<std::int64_t>(i)))))
      std::abort();
    const auto head = ring.peek_head();
    sink += head->seq;
    const runtime::Message m = ring.pop_head();
    sink += static_cast<std::uint64_t>(m.payload.as<std::int64_t>());
  }
  const double ns = ns_since(t0, static_cast<double>(ops));
  if (sink == 1) std::fputs("", stderr);  // keep the loop observable
  return ns;
}

double ring_dummy_run_ns(std::uint64_t runs) {
  constexpr std::size_t kRun = 64;
  runtime::SpscRing ring(kRun);
  const double t0 = now_s();
  std::uint64_t seq = 0;
  std::uint64_t popped = 0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    if (ring.try_push_dummies(seq, kRun) != kRun) std::abort();
    seq += kRun;
    while (const auto head = ring.peek_head()) {
      popped += ring.pop_dummies(head->run);
    }
  }
  if (popped != runs * kRun) std::abort();
  return ns_since(t0, static_cast<double>(runs * kRun));
}

double channel_op_ns(std::uint64_t ops) {
  runtime::BoundedChannel ch(64, nullptr);
  const double t0 = now_s();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (ch.try_push(runtime::Message::data(
            i, runtime::Value(static_cast<std::int64_t>(i)))) !=
        runtime::PushResult::Ok)
      std::abort();
    const auto head = ch.try_peek_head();
    sink += head->seq;
    const runtime::Message m = ch.pop_head();
    sink += static_cast<std::uint64_t>(m.payload.as<std::int64_t>());
  }
  const double ns = ns_since(t0, static_cast<double>(ops));
  if (sink == 1) std::fputs("", stderr);
  return ns;
}

// Two threads hand a token back and forth through ParkingLot: each side
// publishes the peer's word, wakes it, and parks on its own. ns per one-way
// hand-off.
double park_wake_ns(std::uint64_t rounds) {
  std::atomic<std::uint32_t> ping{0};
  std::atomic<std::uint32_t> pong{0};
  auto wait_for = [](std::atomic<std::uint32_t>& word, std::uint32_t want) {
    for (;;) {
      const std::uint32_t v = word.load(std::memory_order_acquire);
      if (v == want) return;
      runtime::ParkingLot::park(word, v);
    }
  };
  std::thread peer([&] {
    for (std::uint32_t i = 1; i <= rounds; ++i) {
      wait_for(ping, i);
      pong.store(i, std::memory_order_release);
      runtime::ParkingLot::wake_one(pong);
    }
  });
  const double t0 = now_s();
  for (std::uint32_t i = 1; i <= rounds; ++i) {
    ping.store(i, std::memory_order_release);
    runtime::ParkingLot::wake_one(ping);
    wait_for(pong, i);
  }
  const double ns = ns_since(t0, static_cast<double>(2 * rounds));
  peer.join();
  return ns;
}

// An in-memory delivery sink: one in-slot queue, outputs counted and
// dropped, so a step times the firing rule and kernel alone.
class QueueSink final : public exec::DeliverySink {
 public:
  std::deque<runtime::Message> in;
  std::uint64_t delivered = 0;

  std::optional<runtime::HeadView> peek_head(std::size_t, bool) override {
    if (in.empty()) return std::nullopt;
    return runtime::HeadView{in.front().seq, in.front().kind, 1};
  }
  runtime::Message pop_head(std::size_t) override {
    runtime::Message m = std::move(in.front());
    in.pop_front();
    return m;
  }
  void pop(std::size_t) override { in.pop_front(); }
  void pop_dummies(std::size_t, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) in.pop_front();
  }
  exec::PushOutcome try_push(std::size_t, runtime::Message&&) override {
    ++delivered;
    return exec::PushOutcome::Delivered;
  }
  std::size_t try_push_dummies(std::size_t, std::uint64_t, std::size_t count,
                               exec::PushOutcome* outcome) override {
    delivered += count;
    *outcome = exec::PushOutcome::Delivered;
    return count;
  }
};

double firing_step_ns(std::uint64_t firings) {
  constexpr std::uint64_t kChunk = 1024;
  QueueSink sink;
  const auto kernel = runtime::pass_through_kernel();
  exec::FiringCore core(
      0, *kernel, 1, 1,
      runtime::NodeWrapper(runtime::DummyMode::Propagation,
                           {runtime::kInfiniteInterval}, {0}),
      0, sink);
  double busy = 0.0;
  std::uint64_t seq = 0;
  while (seq < firings) {
    for (std::uint64_t i = 0; i < kChunk; ++i, ++seq)
      sink.in.push_back(runtime::Message::data(
          seq, runtime::Value(static_cast<std::int64_t>(seq))));
    const double t0 = now_s();
    while (core.step()) {
    }
    busy += now_s() - t0;
  }
  if (sink.delivered != seq) std::abort();
  return busy * 1e9 / static_cast<double>(seq);
}

double frame_codec_ns_per_byte(std::uint64_t frames) {
  net::PushBatchFrame f;
  for (std::int64_t i = 0; i < 64; ++i) f.values.emplace_back(i * 7919);
  std::uint64_t bytes = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < frames; ++i) {
    net::Writer w;
    net::encode(f, w);
    const auto& b = w.bytes();
    const auto back = net::decode_push_batch(b.data(), b.size());
    if (!back || back->values.size() != f.values.size()) std::abort();
    bytes += b.size();
  }
  return (now_s() - t0) * 1e9 / static_cast<double>(bytes);
}

}  // namespace

MicroCosts measure_micro(bool tiny) {
  const std::uint64_t s = tiny ? 20 : 1;
  MicroCosts m;
  m.ring_op_ns = median_of(5, [&] { return ring_op_ns(1'000'000 / s); });
  m.ring_dummy_run_ns =
      median_of(5, [&] { return ring_dummy_run_ns(40'000 / s); });
  m.channel_op_ns = median_of(5, [&] { return channel_op_ns(500'000 / s); });
  m.park_wake_ns = median_of(5, [&] { return park_wake_ns(5'000 / s); });
  m.firing_step_ns = median_of(5, [&] { return firing_step_ns(400'000 / s); });
  m.frame_codec_ns_per_byte =
      median_of(5, [&] { return frame_codec_ns_per_byte(20'000 / s); });
  return m;
}

void add_micro_metrics(Result& r, const MicroCosts& m) {
  r.set("runtime.ring_op_ns", m.ring_op_ns);
  r.set("runtime.ring_dummy_run_ns", m.ring_dummy_run_ns);
  r.set("runtime.channel_op_ns", m.channel_op_ns);
  r.set("runtime.park_wake_ns", m.park_wake_ns);
  r.set("runtime.firing_step_ns", m.firing_step_ns);
  r.set("net.frame_codec_ns_per_byte", m.frame_codec_ns_per_byte);
}

void add_accounting(Result& r, const MicroCosts& m, const OpCounts& per_item,
                    double measured_cpu_us_per_item, const char* workload) {
  const double firing = per_item.firings * m.firing_step_ns;
  const double ring = per_item.data_msgs * m.ring_op_ns;
  const double dummy = per_item.dummies * m.ring_dummy_run_ns;
  const double port = per_item.port_msgs * m.channel_op_ns;
  const double park = per_item.futex_parks * m.park_wake_ns;
  const double codec = per_item.wire_bytes * m.frame_codec_ns_per_byte;
  const double predicted_us = (firing + ring + dummy + port + park + codec) / 1e3;
  const double unexplained =
      measured_cpu_us_per_item > 0
          ? (measured_cpu_us_per_item - predicted_us) / measured_cpu_us_per_item
          : 0.0;
  r.set("accounting.predicted_cpu_us_per_item", predicted_us);
  r.set("accounting.unexplained_frac", unexplained);
  std::fprintf(stderr,
               "perfbench: %s accounting (ns/item): firing %.0f + ring %.0f + "
               "dummy-run %.0f + port %.0f + park %.0f + codec %.0f = "
               "predicted %.3f us; measured cpu_us_per_item %.3f us; "
               "gap %.3f us (%.1f%%)\n",
               workload, firing, ring, dummy, port, park, codec, predicted_us,
               measured_cpu_us_per_item, measured_cpu_us_per_item - predicted_us,
               unexplained * 100.0);
}

}  // namespace perfbench
