#include "src/runtime/spsc_ring.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::runtime {

SpscRing::SpscRing(std::size_t capacity)
    : capacity_(capacity), segs_(capacity + 1) {
  // capacity + 1 segments: the extra one is the marker's physical headroom
  // (markers are excluded from the logical capacity; see slot()).
  SDAF_EXPECTS(capacity >= 1);
}

std::uint64_t SpscRing::logical_space(std::uint64_t want) {
  // Marker-excluded occupancy estimate for data/dummy admission. The
  // refresh order is load-bearing: popped_ (acquire) FIRST, then
  // markers_in_ring_. The consumer decrements markers_in_ring_ before its
  // popped_ publish, so a popped_ value that includes a marker's pop
  // implies the markers read also sees its decrement -- the estimate can
  // over-count logical occupancy (spurious full, retried) but never
  // under-count it (which would over-admit past the certified bound).
  std::uint64_t used = p_.pushed - p_.popped_cache - p_.markers_cache;
  if (capacity_ - std::min<std::uint64_t>(used, capacity_) < want) {
    p_.popped_cache = popped_.load(std::memory_order_acquire);
    p_.markers_cache = markers_in_ring_.load(std::memory_order_acquire);
    used = p_.pushed - p_.popped_cache - p_.markers_cache;
  }
  return used >= capacity_ ? 0 : capacity_ - used;
}

void SpscRing::publish(std::size_t count, PushEffect* effect) {
  const std::uint64_t before = p_.pushed;
  // Sampled just before the publish so the occupancy high-water is exact
  // when un-raced and can only over-report (never miss) a concurrent peak
  // -- a pop landing inside the publish window must not hide saturation.
  const std::uint64_t popped_pre = popped_.load(std::memory_order_acquire);
  p_.pushed += count;
  pushed_.store(p_.pushed, std::memory_order_release);
  // Dekker pairing with the consumer's park protocol: after publishing,
  // re-read popped_ across a seq_cst fence. Either this read observes the
  // consumer's final pops (so was_empty correctly reports the transition
  // and the caller wakes it), or the consumer's post-park probe -- which
  // reads pushed_ after its own seq_cst park RMW -- observes this push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // acquire, not relaxed: this value becomes popped_cache, which later
  // justifies reusing a slot without re-reading popped_ -- so it must carry
  // the happens-before edge to the consumer's last writes to that slot.
  const std::uint64_t popped_now = popped_.load(std::memory_order_acquire);
  p_.popped_cache = popped_now;
  // popped_cache and markers_cache must move together (popped_ first, as in
  // logical_space): a fresh popped_ that includes a marker's pop next to a
  // cached count that still holds that marker subtracts it twice and
  // over-admits one logical slot per stale marker. The cache only ever
  // over-counts (this producer is the sole incrementer), so zero is exact.
  if (p_.markers_cache != 0)
    p_.markers_cache = markers_in_ring_.load(std::memory_order_acquire);
  if (effect != nullptr) {
    // popped_now > before means the consumer already consumed part of this
    // very push: it is certainly awake, so the wake-up may be elided.
    effect->was_empty = popped_now >= before;
    effect->occupancy = static_cast<std::size_t>(p_.pushed - popped_pre);
  }
}

bool SpscRing::try_push(Message&& m, PushEffect* effect) {
  if (logical_space(1) == 0) return false;
  if (m.kind == MessageKind::Dummy && p_.segs > 0 && p_.tail_is_dummy &&
      p_.tail_base_seq + p_.tail_run == m.seq && p_.tail_run < kRunLimit) {
    Segment& t = slot(p_.segs - 1);
    std::uint32_t expected = p_.tail_run;
    if (t.run.compare_exchange_strong(expected, p_.tail_run + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      ++p_.tail_run;
      publish(1, effect);
      return true;
    }
    // The consumer sealed the (fully consumed) tail; fresh segment below.
  }
  Segment& s = slot(p_.segs);
  p_.tail_is_dummy = m.kind == MessageKind::Dummy;
  p_.tail_base_seq = m.seq;
  p_.tail_run = 1;
  s.msg = std::move(m);
  s.run.store(1, std::memory_order_relaxed);  // ordered by publish()'s release
  ++p_.segs;
  publish(1, effect);
  return true;
}

std::size_t SpscRing::try_push_batch(Message* msgs, std::size_t count,
                                     PushEffect* effect) {
  if (count == 0) return 0;
  const std::uint64_t space = logical_space(count);
  const std::size_t accepted = std::min<std::uint64_t>(count, space);
  if (accepted == 0) return 0;
  for (std::size_t k = 0; k < accepted; ++k) {
    // Data only: dummy runs ride try_push_dummies (they coalesce, which
    // needs the tail CAS this staging loop deliberately avoids), and EOS is
    // a single terminal message.
    SDAF_EXPECTS(msgs[k].kind == MessageKind::Data);
    Segment& s = slot(p_.segs);
    p_.tail_is_dummy = false;
    p_.tail_base_seq = msgs[k].seq;
    p_.tail_run = 1;
    s.msg = std::move(msgs[k]);
    s.run.store(1, std::memory_order_relaxed);  // ordered by publish()
    ++p_.segs;
  }
  publish(accepted, effect);
  return accepted;
}

std::size_t SpscRing::try_push_dummies(std::uint64_t first_seq,
                                       std::size_t count, PushEffect* effect) {
  if (count == 0) return 0;
  const std::uint64_t space = logical_space(count);
  const std::size_t accepted =
      std::min<std::uint64_t>(count, space);
  if (accepted == 0) return 0;
  if (p_.segs > 0 && p_.tail_is_dummy &&
      p_.tail_base_seq + p_.tail_run == first_seq &&
      p_.tail_run + accepted < kRunLimit) {
    Segment& t = slot(p_.segs - 1);
    std::uint32_t expected = p_.tail_run;
    if (t.run.compare_exchange_strong(
            expected, p_.tail_run + static_cast<std::uint32_t>(accepted),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      p_.tail_run += static_cast<std::uint32_t>(accepted);
      publish(accepted, effect);
      return accepted;
    }
  }
  Segment& s = slot(p_.segs);
  p_.tail_is_dummy = true;
  p_.tail_base_seq = first_seq;
  p_.tail_run = static_cast<std::uint32_t>(accepted);
  s.msg = Message::dummy(first_seq);
  s.run.store(static_cast<std::uint32_t>(accepted), std::memory_order_relaxed);
  ++p_.segs;
  publish(accepted, effect);
  return accepted;
}

bool SpscRing::try_push_marker(std::uint64_t seq, PushEffect* effect) {
  // Physical space check against capacity + 1: the marker rides the extra
  // segment, so a channel at its certified logical bound still admits it.
  // Slot safety: admission implies physical occupancy <= capacity before
  // the push, so live segments <= capacity = (#slots - 1) and the new slot
  // is retired (see the slot-reuse argument in the header comment).
  if (p_.pushed - p_.popped_cache >= capacity_ + 1) {
    p_.popped_cache = popped_.load(std::memory_order_acquire);
    p_.markers_cache = markers_in_ring_.load(std::memory_order_acquire);
    if (p_.pushed - p_.popped_cache >= capacity_ + 1) return false;
  }
  // Markers never coalesce and terminate any dummy tail run: the fresh
  // segment below resets the producer's tail mirror.
  Segment& s = slot(p_.segs);
  p_.tail_is_dummy = false;
  p_.tail_base_seq = seq;
  p_.tail_run = 1;
  s.msg = Message::marker(seq);
  s.run.store(1, std::memory_order_relaxed);  // ordered by publish()
  ++p_.segs;
  ++p_.markers_cache;
  // Increment BEFORE the pushed_ publish: any reader that observes this
  // push in pushed_ also observes the marker in markers_in_ring_, so a
  // marker-excluded occupancy can never over-report logical occupancy by
  // counting the marker as data.
  markers_in_ring_.fetch_add(1, std::memory_order_release);
  publish(1, effect);
  return true;
}

std::optional<HeadView> SpscRing::peek_head() {
  if (c_.pushed_cache == c_.popped) {
    c_.pushed_cache = pushed_.load(std::memory_order_acquire);
    if (c_.pushed_cache == c_.popped) return std::nullopt;
  }
  // Unconsumed messages exist, so the loop terminates: each round either
  // returns a head, retires an exhausted segment (the next one is already
  // published -- it holds the unconsumed messages), or observes the
  // producer's concurrent run extension.
  for (;;) {
    Segment& s = slot(c_.segs);
    const std::uint32_t raw = s.run.load(std::memory_order_acquire);
    // The producer's run-extension CAS (and a fresh segment's run store)
    // becomes visible *before* the matching pushed_ publish, so the raw
    // value may briefly exceed the published message count. The consumer
    // must never observe -- let alone pop -- messages beyond pushed_:
    // over-popping drives popped_ past pushed_, which breaks the
    // producer's full-check (slot reuse under a live head), the occupancy
    // snapshots, and the retire walk. Messages preceding this segment
    // number c_.popped - c_.consumed, so exactly `avail` of the run is
    // published; clamp to it (after refreshing the cache, so an
    // already-published extension is never under-reported).
    std::uint32_t run = raw;
    if ((raw & kSealed) == 0) {
      std::uint64_t avail = c_.pushed_cache - (c_.popped - c_.consumed);
      if (raw > avail) {
        c_.pushed_cache = pushed_.load(std::memory_order_acquire);
        avail = c_.pushed_cache - (c_.popped - c_.consumed);
        if (raw > avail) run = static_cast<std::uint32_t>(avail);
      }
    }
    if (c_.consumed < run) {
      if (s.msg.kind == MessageKind::Dummy)
        return HeadView{s.msg.seq + c_.consumed, MessageKind::Dummy,
                        run - c_.consumed};
      return HeadView{s.msg.seq, s.msg.kind, 1};
    }
    if ((raw & kSealed) == 0 && c_.consumed < raw) continue;
    // ^ the clamp hid an extension whose count publish is still in flight;
    // the refresh above makes this retry loop terminate with the producer.
    // Exhausted head: seal it so the producer can never extend it, then
    // retire. A failed seal means the producer just extended the run.
    std::uint32_t expected = raw;
    if (s.run.compare_exchange_strong(expected, raw | kSealed,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      ++c_.segs;
      c_.consumed = 0;
    }
  }
}

std::optional<Message> SpscRing::peek_message() {
  const auto head = peek_head();
  if (!head.has_value()) return std::nullopt;
  if (head->kind == MessageKind::Dummy) return Message::dummy(head->seq);
  return slot(c_.segs).msg;  // deep copy, dumps/tests only
}

Message SpscRing::pop_head(PopEffect* effect) {
  Segment& s = slot(c_.segs);
  SDAF_EXPECTS(c_.consumed < s.run.load(std::memory_order_acquire));
  Message m;
  if (s.msg.kind == MessageKind::Dummy) {
    m = Message::dummy(s.msg.seq + c_.consumed);
  } else {
    m = std::move(s.msg);
  }
  // Decrement BEFORE the popped_ publish (inside finish_pop): a producer
  // whose popped_ read includes this pop must also see the marker gone, or
  // its marker-excluded space estimate would subtract the marker twice and
  // over-admit (see logical_space).
  if (m.kind == MessageKind::Marker)
    markers_in_ring_.fetch_sub(1, std::memory_order_release);
  ++c_.consumed;
  finish_pop(s, 1, effect);
  return m;
}

void SpscRing::pop(PopEffect* effect) {
  Segment& s = slot(c_.segs);
  SDAF_EXPECTS(c_.consumed < s.run.load(std::memory_order_acquire));
  if (s.msg.kind != MessageKind::Dummy) s.msg.payload = Value{};
  if (s.msg.kind == MessageKind::Marker)
    markers_in_ring_.fetch_sub(1, std::memory_order_release);
  ++c_.consumed;
  finish_pop(s, 1, effect);
}

std::size_t SpscRing::pop_dummies(std::size_t count, PopEffect* effect) {
  if (count == 0) return 0;
  const auto head = peek_head();
  if (!head.has_value() || head->kind != MessageKind::Dummy) return 0;
  const std::size_t popped = std::min<std::size_t>(count, head->run);
  Segment& s = slot(c_.segs);
  c_.consumed += static_cast<std::uint32_t>(popped);
  finish_pop(s, popped, effect);
  return popped;
}

void SpscRing::finish_pop(Segment& s, std::size_t count, PopEffect* effect) {
  // Retire the head if this pop exhausted it, *before* publishing the pop:
  // the producer's slot-reuse argument needs "every unretired segment still
  // holds an unconsumed message" to hold whenever it acquires popped_.
  std::uint32_t run = s.run.load(std::memory_order_acquire);
  if (c_.consumed == run) {
    if (s.run.compare_exchange_strong(run, run | kSealed,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      ++c_.segs;
      c_.consumed = 0;
    }
    // Seal failure: the producer extended the run; the segment stays head.
  }
  const std::uint64_t before = c_.popped;
  c_.popped += count;
  popped_.store(c_.popped, std::memory_order_release);
  // Dekker pairing with the producer's waiter registration / park probe
  // (mirror image of publish()).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // acquire, not relaxed: this value becomes pushed_cache, which later lets
  // peek_head skip its own acquire reload -- so it must carry the
  // happens-before edge to the producer's segment writes.
  const std::uint64_t pushed_now = pushed_.load(std::memory_order_acquire);
  if (pushed_now > c_.pushed_cache) c_.pushed_cache = pushed_now;
  if (effect != nullptr) {
    // Reads >= capacity for every genuinely-full-before pop; concurrent
    // pushes can make it spuriously true (a harmless extra wake), never
    // falsely false for a parked producer.
    effect->was_full = pushed_now - before >= capacity_;
  }
}

std::size_t SpscRing::size() const {
  // Coherent snapshot: retry until popped_ is stable around the pushed_
  // read. pushed - popped is then a physical size that actually existed and
  // is bounded by capacity + 1 (the producer's admission checks allow at
  // most capacity logical messages plus one marker). The reported value is
  // logical -- markers excluded -- clamped into [0, capacity]; a marker
  // push or pop racing the reads can skew the estimate by one in either
  // direction, which only ever produces a spurious full/non-full for
  // observers, never an admission decision (producers use logical_space).
  std::uint64_t p0 = popped_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t pushed = pushed_.load(std::memory_order_acquire);
    const std::uint64_t markers =
        markers_in_ring_.load(std::memory_order_acquire);
    const std::uint64_t p1 = popped_.load(std::memory_order_acquire);
    if (p0 == p1) {
      SDAF_ASSERT(pushed >= p0 && pushed - p0 <= capacity_ + 1);
      const std::uint64_t physical = pushed - p0;
      const std::uint64_t m = std::min<std::uint64_t>(markers, physical);
      return static_cast<std::size_t>(
          std::min<std::uint64_t>(physical - m, capacity_));
    }
    p0 = p1;
  }
}

}  // namespace sdaf::runtime
