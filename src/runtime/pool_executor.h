// Pooled scheduler runtime: runs stream graphs as cooperatively scheduled
// node tasks on a fixed-size worker pool, instead of one OS thread per node.
//
// Motivation: one OS thread per node is the paper's model made literal but
// cannot scale -- a 10k-node ladder costs 10k threads, and concurrent
// graph instances multiply that. Here each node is a non-blocking state
// machine (runtime::NodeState) that a worker steps until it can make no
// progress, then parks; channel transitions (input filled, full output
// drained) re-enqueue it. Threads never block inside a kernel or a channel,
// so a pool of W workers runs any number of graphs of any size with exactly
// W + 1 OS threads.
//
// Scheduling (v2) is work-stealing: each worker owns a Chase-Lev deque
// (runtime::StealDeque) plus a one-task LIFO hot slot for the freshest
// wake-up (cache affinity); idle workers steal from randomly ordered
// victims -- the hot slot by atomic exchange, the deque from its FIFO top.
// External threads (submit kicks, stream-port hooks) enqueue through a small
// locked injector. Wake fences are amortized: a worker batches the wakes
// its quantum generates and publishes one epoch bump per drain, not one per
// channel push; idle workers park futex-style (runtime::ParkingLot) on the
// epoch word, with a pre-park re-scan of every source so the flush protocol
// is "never falsely empty for a parked peer". See docs/SCHEDULER.md.
//
// Deadlock is certified *exactly*, not by watchdog timing: a per-instance
// counter tracks queued + running tasks; nodes are only woken by channel
// transitions caused by other tasks of the same instance or by port
// transitions, so when the counter reaches zero with every port closed and
// drained no future progress is possible. Distributing the
// ready queue does not move that quiescence point: a task counts from its
// schedule() transition until its park decrement, wherever it sits -- a
// hot slot, any deque, a per-tenant injector lane, or a thief's hands
// between the winning steal CAS and run_task. If nodes remain unfinished
// at quiescence the instance deadlocked -- the same verdict the Sim
// backend's sweep rule computes. The DRR lanes (qos) reorder only *when* queued tasks run,
// never whether they are counted, so weighting one tenant down cannot
// turn another tenant's starvation into a false deadlock verdict.
//
// The pool is multi-tenant: submit() may be called concurrently for many
// independent graph instances, which interleave on the same workers. Pair
// with core::CompileCache to also amortize the compile pass (CS4
// decomposition + interval computation) across submissions of the same
// topology.
//
// Callers run graphs through exec::Session / exec::Stream -- point
// RunSpec::pool at a shared PoolExecutor; submit() and the stream hooks
// below are the port plumbing exec::Stream drives. The firing semantics
// live in src/exec/firing_core.cpp, shared with the simulator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/obs/metrics.h"
#include "src/runtime/channel.h"
#include "src/runtime/kernel.h"
#include "src/runtime/node_state.h"
#include "src/runtime/parking_lot.h"
#include "src/runtime/steal_deque.h"

namespace sdaf::runtime {

namespace pool_detail {
struct NodeTask;
}  // namespace pool_detail

class PoolExecutor {
 public:
  struct Options {
    // 0 = std::thread::hardware_concurrency() (at least 1).
    std::size_t workers = 0;
    // Fairness quantum: a task yields to the shared injector after this
    // many consecutive productive steps, so one large instance cannot
    // starve co-tenants.
    std::size_t max_steps_per_quantum = 256;
    // Initial capacity of each worker's stealing deque (grows on demand;
    // rounded up to a power of two). Tests shrink this to hammer the
    // growth path under concurrent steals.
    std::size_t deque_capacity = 256;
    // Seeds the per-worker PRNGs that randomize victim order (and drive
    // the perturbation hook below). Fixed seed = reproducible schedules
    // for a given interleaving; SDAF_HARNESS_REPRO records it.
    std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
    // Schedule-perturbation hook for the differential harness: when
    // nonzero, each worker yields its timeslice with probability N/256 at
    // every injected decision point (between task steps and between steal
    // probes), forcing adversarial interleavings that a free-running pool
    // rarely explores. 0 = off (production).
    std::uint32_t perturb_yield_in_256 = 0;
    // When false, workers skip the LIFO hot slot and take their own deque
    // from the FIFO end (self-steal) -- the harness's sched=fifo mode.
    bool lifo_slot = true;
    // Weighted deficit-round-robin across per-tenant injector lanes (qos):
    // external wakes and quantum yields land in the lane of the submitting
    // tenant, and workers drain lanes proportionally to RunSpec::
    // tenant_weight. When false every instance shares lane 0 -- the legacy
    // single-FIFO injector, kept as the bench baseline (and the degenerate
    // case of the same code path, so verdicts cannot depend on the flag).
    bool fair_injector = true;
  };

  PoolExecutor() : PoolExecutor(Options{}) {}
  explicit PoolExecutor(std::size_t workers) : PoolExecutor(Options{workers}) {}
  explicit PoolExecutor(const Options& options);
  // Waits for every submitted instance to finish (deadlocked instances
  // finish too -- quiescence is detected exactly), then joins the pool. An
  // instance with an open port never finishes, so every Stream on this
  // pool must be finished or destroyed first.
  ~PoolExecutor();

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  using TicketId = std::uint64_t;

  // Starts an execution of `g`. The graph and kernels must stay alive until
  // wait() returns. Options are the exec::RunSpec shared by every backend;
  // the backend-selection and Sim fields are ignored (deadlock here is
  // certified by exact quiescence, not timing).
  //
  // options.ports must be set: sources read the injected feeds and tapped
  // sinks gain an egress out-slot. The instance only finalizes when it is
  // quiescent *and* no port can still supply work -- every port reported
  // closed (stream_port_closed), no input-starved source with a non-empty
  // feed, no sink parked on its egress tap -- so deadlock certification
  // stays exact while ports are open (quiescence with an open port is
  // "idle, awaiting the caller", never a verdict). On a deadlock verdict
  // every port channel is aborted, releasing callers parked on them. The
  // port channels must outlive the instance; exec::Stream owns them.
  [[nodiscard]] TicketId submit(const StreamGraph& g,
                                std::vector<std::shared_ptr<Kernel>> kernels,
                                const exec::RunSpec& options);

  // Streaming hooks for exec::Stream. The opaque handle (fetched once per
  // stream) keeps the per-push path off the ticket table; it pins the
  // instance, so drop it before or at wait().
  using StreamHandle = std::shared_ptr<void>;
  [[nodiscard]] StreamHandle stream_handle(TicketId ticket);
  // Re-schedules a node task after a port transition (feed push filled an
  // empty feed; egress pop drained a full tap).
  static void stream_wake(const StreamHandle& handle, NodeId node);
  // Reports one port closed (its EOS already pushed). The caller must wake
  // the port's node afterwards so a quiescent instance re-checks.
  static void stream_port_closed(const StreamHandle& handle);

  // Snapshot assembly (ckpt): edge e's cumulative traffic at the barrier
  // cut -- the marker latch when the producer forwarded Marker(S), the
  // frozen totals when it finished before the barrier. Only valid once the
  // barrier's downstream consumers have checkpointed.
  [[nodiscard]] static ckpt::EdgeCut stream_edge_cut(
      const StreamHandle& handle, EdgeId e, bool producer_checkpointed);

  // Blocks until the instance finishes; each ticket may be waited once.
  [[nodiscard]] exec::RunReport wait(TicketId ticket);

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  // Pool-global scheduler counters: one WorkerMetrics per worker plus a
  // final "external" entry (wakes issued by non-worker threads -- submit
  // kicks and stream-port transitions). Safe to call any time; values are
  // cumulative across every instance the pool ever ran (the pool, not the
  // run, owns worker identity).
  [[nodiscard]] std::vector<obs::WorkerMetrics> worker_metrics() const;

  // Per-tenant injector-lane accounting (DRR scheduler): one entry per
  // tenant the pool has ever seen, snapshotted under the injector lock so
  // enqueued - dequeued == queue_depth exactly. Lanes are never removed --
  // a retired tenant's lane costs one empty deque and keeps its counters
  // visible to the exporter.
  [[nodiscard]] std::vector<obs::TenantSchedMetrics> tenant_metrics() const;

 private:
  struct Instance;
  friend struct pool_detail::NodeTask;

  // One worker's scheduling state. The deque and hot slot hold NodeTask*;
  // only the owning worker pushes/pops the deque bottom, but any thread
  // may exchange the hot slot or steal the deque top.
  struct Worker;

  void worker_loop(std::size_t worker_index);
  void run_task(pool_detail::NodeTask* task);
  void schedule(pool_detail::NodeTask* task);
  // Local enqueue on the calling worker (hot slot / deque bottom),
  // deferring the wake to the next flush; w is the caller's own Worker.
  void enqueue_local(Worker& w, pool_detail::NodeTask* task);
  // Shared FIFO enqueue (external threads, quantum yields) + immediate
  // wake flush.
  void enqueue_injector(pool_detail::NodeTask* task);
  // One amortized wake: publishes this worker's batched pushes to parked
  // peers with a single epoch bump (elided when nobody sleeps).
  void flush_wakes(Worker& w);
  // Next runnable task for worker w: own hot slot, own deque, injector,
  // then a randomized steal sweep. Sets *contended when a steal lost a
  // race (work exists; the caller must not park on this round).
  [[nodiscard]] pool_detail::NodeTask* find_task(Worker& w, bool* contended);
  [[nodiscard]] pool_detail::NodeTask* pop_injector();
  // The calling thread's counter shard: its own when it is one of this
  // pool's workers, the shared external shard otherwise.
  [[nodiscard]] obs::WorkerCounters& current_shard();
  // Called at quiescence (active hit zero): finalize, or stay idle when a
  // port may still supply work.
  void maybe_finalize(Instance& instance);
  void finalize(Instance& instance);

  // One per-tenant injector lane, drained by deficit round-robin: a lane at
  // the head of the active ring gets a grant of `weight` task dequeues,
  // then rotates to the back; a lane that empties forfeits its remaining
  // deficit and unlinks (DRR's empty-queue rule, so a silent tenant
  // accumulates no credit). All fields are guarded by injector_mu_.
  struct TenantLane {
    std::string tenant;
    std::uint64_t weight = 1;
    std::uint64_t deficit = 0;
    bool linked = false;  // present in the active ring
    std::deque<pool_detail::NodeTask*> q;
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t depth_max = 0;
  };
  // Lane id for `tenant`, creating it on first sight (injector_mu_ held by
  // the caller is NOT required -- this takes the lock itself).
  [[nodiscard]] std::size_t intern_lane(const std::string& tenant,
                                        double weight);

  Options options_;
  std::atomic<bool> stop_{false};
  // Sleep/wake rendezvous for idle workers: version = work epoch, bumped
  // (amortized) whenever new work may exist and a worker sleeps.
  EventWord work_event_;
  // The injector (external schedulers, quantum-yielded tasks): per-tenant
  // lanes + the DRR ring of lanes with queued work. injector_size_ caches
  // the total across lanes for the lock-free empty probe.
  mutable std::mutex injector_mu_;
  std::vector<std::unique_ptr<TenantLane>> lanes_;
  std::unordered_map<std::string, std::size_t> lane_ids_;
  std::deque<std::size_t> active_lanes_;
  std::atomic<std::size_t> injector_size_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  // workers + 1 shards, sized before the workers spawn and never resized;
  // the final shard absorbs increments from non-worker threads.
  std::vector<obs::WorkerCounters> worker_shards_;
  std::vector<std::thread> threads_;

  std::mutex instances_mu_;
  std::uint64_t next_ticket_ = 1;
  std::unordered_map<TicketId, std::shared_ptr<Instance>> instances_;
};

}  // namespace sdaf::runtime
