// The correctness side of every workload: seeded inputs, and the same
// inputs run through the deterministic Sim backend as the reference that
// each measured stream's output and traffic must equal.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "src/exec/session.h"

namespace perfbench {

// Inputs first .. first+n-1 of input stream `stream` (common.h item_value).
[[nodiscard]] std::vector<sdaf::runtime::Value> seeded_values(
    std::uint64_t seed, std::uint64_t stream, std::uint64_t first,
    std::size_t n);

struct Reference {
  OutputDigest digest;
  sdaf::exec::RunReport report;
};

// Pushes `n` seeded inputs of `stream` through a Sim-backend stream opened
// with `spec` (its backend is overridden), draining the single output port
// as it goes, then closes and finishes.
[[nodiscard]] Reference sim_reference(
    const sdaf::StreamGraph& g,
    std::vector<std::shared_ptr<sdaf::runtime::Kernel>> kernels,
    sdaf::exec::StreamSpec spec, std::uint64_t seed, std::uint64_t stream,
    std::uint64_t n);

// Verdict, per-edge data and dummy counts, firings and sink deliveries
// equal (channel high-water marks are timing-dependent and not compared).
[[nodiscard]] bool same_traffic(const sdaf::exec::RunReport& a,
                                const sdaf::exec::RunReport& b);

}  // namespace perfbench
