#include "reference.h"

#include <algorithm>

namespace perfbench {

using namespace sdaf;

std::vector<runtime::Value> seeded_values(std::uint64_t seed,
                                          std::uint64_t stream,
                                          std::uint64_t first, std::size_t n) {
  std::vector<runtime::Value> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.emplace_back(item_value(seed, stream, first + i));
  return v;
}

Reference sim_reference(const StreamGraph& g,
                        std::vector<std::shared_ptr<runtime::Kernel>> kernels,
                        exec::StreamSpec spec, std::uint64_t seed,
                        std::uint64_t stream, std::uint64_t n) {
  spec.run.backend = exec::Backend::Sim;
  spec.run.pool = nullptr;
  exec::Session session(g, std::move(kernels));
  exec::Stream s = session.open(std::move(spec));
  Reference ref;
  std::vector<exec::OutputPort::Item> out;
  auto drain = [&] {
    out.clear();
    s.output(0).poll_batch(&out, 4096);
    for (const auto& it : out) ref.digest.add(it.seq, it.value.as<std::int64_t>());
    return out.size();
  };
  std::uint64_t pushed = 0;
  while (pushed < n) {
    const auto k = static_cast<std::size_t>(std::min<std::uint64_t>(64, n - pushed));
    const std::size_t acc = s.input(0).push_batch(seeded_values(seed, stream, pushed, k));
    pushed += acc;
    if (drain() == 0 && acc == 0) break;  // wedged; finish() reports it
  }
  s.input(0).close();
  for (;;) {
    if (drain() > 0) continue;
    const auto it = s.output(0).next();
    if (!it) break;
    ref.digest.add(it->seq, it->value.as<std::int64_t>());
  }
  ref.report = s.finish();
  return ref;
}

bool same_traffic(const exec::RunReport& a, const exec::RunReport& b) {
  if (a.completed != b.completed || a.deadlocked != b.deadlocked ||
      a.edges.size() != b.edges.size() || a.fires != b.fires ||
      a.sink_data != b.sink_data)
    return false;
  for (std::size_t e = 0; e < a.edges.size(); ++e)
    if (a.edges[e].data != b.edges[e].data ||
        a.edges[e].dummies != b.edges[e].dummies)
      return false;
  return true;
}

}  // namespace perfbench
