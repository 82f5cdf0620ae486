#include "src/core/compile.h"

#include <algorithm>
#include <tuple>

#include "src/graph/cycles.h"
#include "src/graph/undirected.h"
#include "src/intervals/baseline.h"
#include "src/support/contracts.h"

namespace sdaf::core {

namespace {

// Marks the continuation edges of one contracted SP component: an edge is
// schedule-capable w.r.t. the component's internal cycles iff every Pc
// ancestor's cycles start at the edge's own tail. One top-down pass carries
// the first Pc ancestor's source and whether another Pc ancestor differs
// from it (then no tail matches them all).
void mark_component_internal(const SpTree& tree, SpTree::Index root,
                             std::vector<std::uint8_t>& forward) {
  std::vector<std::tuple<SpTree::Index, NodeId, bool>> stack{
      {root, kNoNode, false}};
  while (!stack.empty()) {
    auto [i, pc_source, mixed] = stack.back();
    stack.pop_back();
    const SpNode& n = tree.node(i);
    const bool differs = pc_source != kNoNode && pc_source != n.source;
    if (n.kind == SpKind::Leaf) {
      if (mixed || differs) forward[n.edge] = 1;
      continue;
    }
    if (n.kind == SpKind::Parallel) {
      mixed = mixed || differs;
      if (pc_source == kNoNode) pc_source = n.source;
    }
    stack.emplace_back(n.left, pc_source, mixed);
    stack.emplace_back(n.right, pc_source, mixed);
  }
}

// Marks the edges of a contracted component as continuation: all of them
// ("whole"), or all but its source-out edges when the component is the
// first hop of every ladder-cycle run it lies on ("first").
void mark_component(const Skeleton& skel, SpTree::Index root, bool whole,
                    std::vector<std::uint8_t>& forward) {
  const NodeId source = skel.tree.node(root).source;
  for (const SpTree::Index leaf : skel.tree.leaves_under(root)) {
    const SpNode& ln = skel.tree.node(leaf);
    if (whole || ln.source != source) forward[ln.edge] = 1;
  }
}

// The layout rule of CompileResult::forward_on_filter(), in O(|G|).
std::vector<std::uint8_t> forward_edges_cs4(const StreamGraph& g,
                                            const Cs4Analysis& analysis) {
  std::vector<std::uint8_t> forward(g.edge_count(), 0);
  const Skeleton& skel = analysis.skeleton;
  for (const auto& se : skel.edges)
    mark_component_internal(skel.tree, se.tree, forward);
  const auto tree_of = [&](std::size_t skel_edge) {
    return skel.edges[skel_edge].tree;
  };
  for (const Ladder& ladder : analysis.ladders) {
    // Entry segments (i == 0) are "first"; later segments and rungs "whole".
    for (const auto* side : {&ladder.left_seg, &ladder.right_seg})
      for (std::size_t i = 0; i < side->size(); ++i)
        mark_component(skel, tree_of((*side)[i]), i > 0, forward);
    for (const LadderRung& rung : ladder.rungs)
      mark_component(skel, tree_of(rung.skel_edge), true, forward);
  }
  return forward;
}

std::vector<std::uint8_t> forward_edges_general(const StreamGraph& g,
                                                std::size_t cycle_limit) {
  std::vector<std::uint8_t> forward(g.edge_count(), 0);
  const auto enumeration = enumerate_undirected_cycles(g, cycle_limit);
  SDAF_EXPECTS(!enumeration.truncated);
  for (const auto& cycle : enumeration.cycles)
    for (const auto& run : directed_runs(g, cycle))
      for (std::size_t k = 1; k < run.edges.size(); ++k)
        forward[run.edges[k]] = 1;
  return forward;
}

}  // namespace

std::vector<std::int64_t> CompileResult::integer_intervals(
    Rounding rounding) const {
  std::vector<std::int64_t> out(intervals.size(), kNoDummyInterval);
  for (EdgeId e = 0; e < intervals.size(); ++e) {
    const Rational& r = intervals[e];
    if (r.is_infinite()) continue;
    const std::int64_t v = rounding == Rounding::PaperCeil ? r.ceil()
                                                           : r.floor();
    out[e] = std::max<std::int64_t>(1, v);
  }
  return out;
}

CompileResult compile(const StreamGraph& g, const CompileOptions& options) {
  CompileResult result;
  result.algorithm = options.algorithm;
  result.on_cycle.assign(g.edge_count(), 0);
  for (const auto& block : biconnected_components(g))
    if (block.size() >= 2)
      for (const EdgeId e : block) result.on_cycle[e] = 1;

  Cs4Analysis analysis = analyze_cs4(g);
  if (!analysis.two_terminal) {
    result.diagnostics = analysis.reason;
    return result;
  }

  if (analysis.is_cs4) {
    result.classification = analysis.pure_sp ? Classification::SpDag
                                             : Classification::Cs4Chain;
    result.intervals =
        options.algorithm == Algorithm::Propagation
            ? cs4_propagation_intervals(g, analysis)
            : cs4_nonprop_intervals(g, analysis);
    result.forward_edges = forward_edges_cs4(g, analysis);
    result.ok = true;
    result.diagnostics = std::string("classified as ") +
                         to_string(result.classification) + "; " +
                         std::to_string(result.intervals.finite_count()) +
                         " of " + std::to_string(g.edge_count()) +
                         " edges need dummy messages";
    return result;
  }

  result.classification = Classification::GeneralDag;
  if (options.general_policy == GeneralPolicy::Reject) {
    result.diagnostics =
        "topology is not CS4 (" + analysis.reason +
        "); rejected per policy -- restructure the graph (Section VII) or "
        "allow the exponential fallback";
    return result;
  }
  result.intervals =
      options.algorithm == Algorithm::Propagation
          ? propagation_intervals_exact(g, options.cycle_limit)
          : nonprop_intervals_exact(g, options.cycle_limit);
  result.forward_edges = forward_edges_general(g, options.cycle_limit);
  result.ok = true;
  result.diagnostics =
      "topology is not CS4 (" + analysis.reason +
      "); intervals computed by exponential cycle enumeration";
  return result;
}

const char* to_string(Classification c) {
  switch (c) {
    case Classification::SpDag:
      return "SP-DAG";
    case Classification::Cs4Chain:
      return "CS4 chain";
    case Classification::GeneralDag:
      return "general DAG";
  }
  return "?";
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Propagation:
      return "Propagation";
    case Algorithm::NonPropagation:
      return "Non-Propagation";
  }
  return "?";
}

}  // namespace sdaf::core
