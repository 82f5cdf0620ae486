#include "src/cs4/decompose.h"

#include <algorithm>

#include "src/cs4/nonprop_ladder.h"
#include "src/cs4/propagation_ladder.h"
#include "src/graph/undirected.h"
#include "src/graph/validate.h"
#include "src/intervals/nonprop_sp.h"
#include "src/intervals/propagation_sp.h"
#include "src/support/contracts.h"

namespace sdaf {

Cs4Analysis analyze_cs4(const StreamGraph& g) {
  Cs4Analysis out;
  const auto report = validate(g);
  out.two_terminal = report.two_terminal();
  if (!out.two_terminal) {
    out.reason = "not a two-terminal DAG:";
    for (const auto& p : report.problems) out.reason += " " + p + ";";
    return out;
  }

  out.skeleton = extract_skeleton(g, g.unique_source(), g.unique_sink());
  if (out.skeleton.is_single_sp()) {
    out.pure_sp = true;
    out.is_cs4 = true;
    return out;
  }

  // Biconnected blocks of the skeleton are the serial-chain components:
  // single-edge blocks are contracted SP components (bridges), multi-edge
  // blocks must be SP-ladder skeletons.
  const auto blocks = biconnected_components(out.skeleton.graph);
  for (const auto& block : blocks) {
    if (block.size() == 1) continue;
    // Terminals: the unique vertices with no in-edge / out-edge inside the
    // block.
    std::vector<std::size_t> indices(block.begin(), block.end());
    std::vector<NodeId> entries;
    std::vector<NodeId> exits;
    {
      std::vector<int> delta_in, delta_out;
      std::vector<NodeId> nodes;
      auto local = [&](NodeId n) {
        const auto it = std::find(nodes.begin(), nodes.end(), n);
        if (it != nodes.end())
          return static_cast<std::size_t>(it - nodes.begin());
        nodes.push_back(n);
        delta_in.push_back(0);
        delta_out.push_back(0);
        return nodes.size() - 1;
      };
      for (const EdgeId e : block) {
        const auto& ed = out.skeleton.graph.edge(e);
        ++delta_out[local(ed.from)];
        ++delta_in[local(ed.to)];
      }
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (delta_in[i] == 0) entries.push_back(nodes[i]);
        if (delta_out[i] == 0) exits.push_back(nodes[i]);
      }
    }
    if (entries.size() != 1 || exits.size() != 1) {
      out.reason = "skeleton block lacks unique entry/exit terminals; graph "
                   "is not a serial composition of two-terminal components";
      return out;
    }
    auto rec = recognize_ladder(out.skeleton, indices, entries.front(),
                                exits.front());
    if (!rec.ladder.has_value()) {
      out.reason = std::move(rec.reason);
      return out;
    }
    out.ladders.push_back(std::move(*rec.ladder));
  }
  out.is_cs4 = true;
  return out;
}

IntervalMap cs4_propagation_intervals(const StreamGraph& g,
                                      const Cs4Analysis& analysis,
                                      LadderMethod method) {
  SDAF_EXPECTS(analysis.is_cs4);
  const Skeleton& skel = analysis.skeleton;

  // External (ladder-level) bound per skeleton component.
  std::vector<Rational> bounds(skel.edges.size(), Rational::infinity());
  for (const Ladder& ladder : analysis.ladders) {
    const auto lb = method == LadderMethod::Enumeration
                        ? ladder_component_bounds_enum(skel, ladder)
                        : ladder_component_bounds_recurrence(skel, ladder,
                                                             {});
    for (std::size_t i = 0; i < bounds.size(); ++i)
      bounds[i] = min(bounds[i], lb[i]);
  }

  IntervalMap out(g.edge_count());
  for (std::size_t i = 0; i < skel.edges.size(); ++i)
    propagation_setivals(skel.tree, skel.metrics, skel.edges[i].tree,
                         bounds[i], out);
  return out;
}

IntervalMap cs4_nonprop_intervals(const StreamGraph& g,
                                  const Cs4Analysis& analysis) {
  SDAF_EXPECTS(analysis.is_cs4);
  const Skeleton& skel = analysis.skeleton;
  const auto parents = skel.tree.parents();

  IntervalMap out(g.edge_count());
  // Cycles internal to each contracted component (Section IV.B per
  // component)...
  for (const auto& se : skel.edges)
    nonprop_internal(skel.tree, skel.metrics, parents, se.tree, out);
  // ...plus the ladder-level external cycles (Section VI.B).
  for (const Ladder& ladder : analysis.ladders)
    ladder_nonprop_external(skel, ladder, parents, out);
  return out;
}

}  // namespace sdaf
