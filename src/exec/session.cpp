#include "src/exec/session.h"

#include "src/runtime/message.h"
#include "src/support/contracts.h"

namespace sdaf::exec {

Session::Session(const StreamGraph& g,
                 std::vector<std::shared_ptr<runtime::Kernel>> kernels)
    : graph_(g), kernels_(std::move(kernels)), cache_(&process_cache()) {
  SDAF_EXPECTS(kernels_.size() == g.node_count());
  for (const auto& k : kernels_) SDAF_EXPECTS(k != nullptr);
}

core::CompileCache& Session::process_cache() {
  static core::CompileCache cache(256);
  return cache;
}

void Session::set_compile_cache(core::CompileCache* cache) {
  SDAF_EXPECTS(cache != nullptr);
  cache_ = cache;
}

RunReport Session::run(const RunSpec& spec) {
  Stream stream = open_batch(spec);
  RunReport report = finish_batch(stream);
  fold_metrics(spec, report);
  return report;
}

void Session::fold_metrics(const RunSpec& spec, const RunReport& report) {
  std::lock_guard lock(ledger_mu_);
  obs::TenantMetrics& t = ledger_[spec.tenant];
  t.tenant = spec.tenant;
  t.runs += 1;
  for (const std::uint64_t f : report.fires) t.items_fired += f;
  for (const EdgeTraffic& e : report.edges) {
    t.data_items += e.data;
    t.dummy_items += e.dummies;
  }
  const std::uint64_t total = t.data_items + t.dummy_items;
  t.dummy_overhead_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(t.dummy_items) /
                       static_cast<double>(total);
  // The certified buffer footprint of this Session's graph: what the
  // avoidance analysis reserves for the tenant, independent of traffic.
  std::uint64_t slots = 0;
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    slots += static_cast<std::uint64_t>(graph_.edge(e).buffer);
  t.channel_slots = slots;
  t.channel_bytes = slots * sizeof(runtime::Message);
  t.wall_seconds += report.wall_seconds;
}

std::vector<obs::TenantMetrics> Session::metrics() const {
  std::lock_guard lock(ledger_mu_);
  std::vector<obs::TenantMetrics> out;
  out.reserve(ledger_.size());
  for (const auto& [name, t] : ledger_) out.push_back(t);
  return out;
}

Session::CompiledRun Session::compile_and_run(RunSpec spec,
                                              core::CompileOptions options,
                                              core::Rounding rounding) {
  // Keep the compile algorithm consistent with the requested dummy mode so
  // the intervals handed to the wrappers match the protocol they run.
  if (spec.mode == runtime::DummyMode::Propagation)
    options.algorithm = core::Algorithm::Propagation;
  else if (spec.mode == runtime::DummyMode::NonPropagation)
    options.algorithm = core::Algorithm::NonPropagation;

  CompiledRun out;
  out.compiled = cache_->get_or_compile(graph_, options);
  out.report.backend = spec.backend;
  if (!out.compiled->ok) return out;  // rejected: report stays not-run
  if (spec.mode != runtime::DummyMode::None) spec.apply(*out.compiled, rounding);
  out.report = run(spec);
  return out;
}

RunReport Session::Pending::get() {
  if (future_.valid()) return future_.get();  // at most once, by contract
  SDAF_EXPECTS(stream_.has_value());
  RunReport report = finish_batch(*stream_);
  stream_.reset();
  return report;
}

Session::Pending Session::submit(const RunSpec& spec) {
  Pending pending;
  if (spec.backend == Backend::Pooled && spec.pool != nullptr) {
    // Feeding closes every port before the tokens are consumed (the feeds
    // have room for all of them), so the run proceeds on the pool's
    // workers while the Pending waits to collect it.
    pending.stream_.emplace(open_batch(spec));
  } else {
    // Thread-offload so Pending::get() never runs the workload inline on
    // any backend. The worker owns a copy of the graph and re-fronts it
    // with a throwaway Session, so neither this Session nor the caller's
    // graph needs to outlive get().
    pending.future_ = std::async(
        std::launch::async,
        [graph = graph_, kernels = kernels_, spec]() mutable {
          Session worker(graph, std::move(kernels));
          return worker.run(spec);
        });
  }
  return pending;
}

}  // namespace sdaf::exec
