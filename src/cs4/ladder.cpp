#include "src/cs4/ladder.h"

#include <algorithm>
#include <tuple>

#include "src/graph/subgraph.h"
#include "src/support/contracts.h"

namespace sdaf {

namespace {

// Two vertex-disjoint directed paths from entry to exit via unit-capacity
// vertex-splitting flow with BFS augmentation. Returns the two paths as
// edge sequences, or empty when max-flow < 2.
struct DisjointPaths {
  bool found = false;
  std::vector<EdgeId> first;   // path edges in order
  std::vector<EdgeId> second;
};

DisjointPaths two_disjoint_paths(const StreamGraph& g, NodeId entry,
                                 NodeId exit) {
  // Arc list with residuals. Node v splits into in(2v) -> out(2v+1).
  struct Arc {
    std::uint32_t to;
    std::int32_t cap;
    std::uint32_t rev;       // index of the reverse arc in adj[to]
    EdgeId edge = kNoEdge;   // original edge for forward graph arcs
  };
  const auto in_node = [](NodeId v) { return 2 * v; };
  const auto out_node = [](NodeId v) { return 2 * v + 1; };
  std::vector<std::vector<Arc>> adj(2 * g.node_count());
  const auto add_arc = [&](std::uint32_t from, std::uint32_t to,
                           std::int32_t cap, EdgeId edge) {
    adj[from].push_back(Arc{to, cap, static_cast<std::uint32_t>(
                                         adj[to].size()),
                            edge});
    adj[to].push_back(Arc{from, 0, static_cast<std::uint32_t>(
                                       adj[from].size() - 1),
                          kNoEdge});
  };
  for (NodeId v = 0; v < g.node_count(); ++v)
    add_arc(in_node(v), out_node(v), (v == entry || v == exit) ? 2 : 1,
            kNoEdge);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    add_arc(out_node(g.edge(e).from), in_node(g.edge(e).to), 1, e);

  const std::uint32_t source = in_node(entry);
  const std::uint32_t target = out_node(exit);
  int flow = 0;
  for (int round = 0; round < 2; ++round) {
    // BFS for an augmenting path.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parent(
        adj.size(), {UINT32_MAX, UINT32_MAX});  // (node, arc index)
    std::vector<std::uint32_t> queue{source};
    parent[source] = {source, UINT32_MAX};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::uint32_t v = queue[qi];
      for (std::uint32_t ai = 0; ai < adj[v].size(); ++ai) {
        const Arc& a = adj[v][ai];
        if (a.cap <= 0 || parent[a.to].first != UINT32_MAX) continue;
        parent[a.to] = {v, ai};
        queue.push_back(a.to);
      }
    }
    if (parent[target].first == UINT32_MAX) break;
    for (std::uint32_t v = target; v != source;) {
      const auto [pv, ai] = parent[v];
      Arc& a = adj[pv][ai];
      a.cap -= 1;
      adj[a.to][a.rev].cap += 1;
      v = pv;
    }
    ++flow;
  }

  DisjointPaths out;
  if (flow < 2) return out;
  // Trace the two paths along saturated graph arcs.
  for (std::vector<EdgeId>* path : {&out.first, &out.second}) {
    NodeId cur = entry;
    while (cur != exit) {
      EdgeId taken = kNoEdge;
      for (Arc& a : adj[out_node(cur)]) {
        if (a.edge == kNoEdge || a.cap != 0) continue;  // unsaturated
        taken = a.edge;
        a.cap = 1;  // consume so the second trace takes the other path
        break;
      }
      SDAF_ASSERT(taken != kNoEdge);
      path->push_back(taken);
      cur = g.edge(taken).to;
    }
  }
  out.found = true;
  return out;
}

// Node path visited by a directed edge sequence starting at `from`.
std::vector<NodeId> path_nodes(const StreamGraph& g, NodeId from,
                               const std::vector<EdgeId>& edges) {
  std::vector<NodeId> nodes{from};
  for (const EdgeId e : edges) {
    SDAF_ASSERT(g.edge(e).from == nodes.back());
    nodes.push_back(g.edge(e).to);
  }
  return nodes;
}

}  // namespace

LadderRecognition recognize_ladder(const Skeleton& skel,
                                   const std::vector<std::size_t>& block_edges,
                                   NodeId entry, NodeId exit) {
  LadderRecognition out;
  SDAF_EXPECTS(block_edges.size() >= 2);

  std::vector<EdgeId> sub_edges;
  sub_edges.reserve(block_edges.size());
  for (const std::size_t i : block_edges)
    sub_edges.push_back(static_cast<EdgeId>(i));
  const Subgraph block = extract_subgraph(skel.graph, sub_edges);
  SDAF_EXPECTS(block.to_sub[entry] != kNoNode);
  SDAF_EXPECTS(block.to_sub[exit] != kNoNode);
  const NodeId sub_entry = block.to_sub[entry];
  const NodeId sub_exit = block.to_sub[exit];

  const DisjointPaths paths =
      two_disjoint_paths(block.graph, sub_entry, sub_exit);
  if (!paths.found) {
    out.reason = "skeleton block has no pair of disjoint terminal-to-"
                 "terminal paths (no outer cycle); not an SP-ladder";
    return out;
  }

  Ladder ladder;
  ladder.entry = entry;
  ladder.exit = exit;

  constexpr std::uint8_t kNoSide = 2;
  std::vector<std::uint8_t> side(block.graph.node_count(), kNoSide);
  std::vector<std::size_t> pos(block.graph.node_count(), 0);
  std::vector<bool> on_outer(block.graph.edge_count(), false);

  const auto trace_side = [&](const std::vector<EdgeId>& path,
                              std::uint8_t which,
                              std::vector<NodeId>& side_nodes,
                              std::vector<std::size_t>& segs) {
    const auto nodes = path_nodes(block.graph, sub_entry, path);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      side_nodes.push_back(block.orig_node[nodes[i]]);  // skeleton node id
      side[nodes[i]] = which;
      pos[nodes[i]] = i;
    }
    for (const EdgeId e : path) {
      segs.push_back(block.orig_edge[e]);  // skeleton edge index
      on_outer[e] = true;
    }
  };
  trace_side(paths.first, 0, ladder.left, ladder.left_seg);
  trace_side(paths.second, 1, ladder.right, ladder.right_seg);
  // Terminals belong to both sides; exclude them from rung side checks.
  side[sub_entry] = kNoSide;
  side[sub_exit] = kNoSide;

  if (ladder.left.size() + ladder.right.size() - 2 !=
      block.graph.node_count()) {
    out.reason = "skeleton block has a vertex off the outer cycle; not an "
                 "SP-ladder";
    return out;
  }

  // Remaining super-edges are rungs.
  for (EdgeId e = 0; e < block.graph.edge_count(); ++e) {
    if (on_outer[e]) continue;
    const auto& ed = block.graph.edge(e);
    if (ed.from == sub_entry || ed.to == sub_entry || ed.from == sub_exit ||
        ed.to == sub_exit) {
      out.reason = "chord touching a terminal survived SP reduction; block "
                   "is not an SP-ladder";
      return out;
    }
    if (side[ed.from] == kNoSide || side[ed.to] == kNoSide ||
        side[ed.from] == side[ed.to]) {
      out.reason = "chord connecting vertices of one side survived SP "
                   "reduction; block is not an SP-ladder";
      return out;
    }
    LadderRung rung;
    rung.skel_edge = block.orig_edge[e];
    rung.left_to_right = side[ed.from] == 0;
    rung.left_pos = pos[rung.left_to_right ? ed.from : ed.to];
    rung.right_pos = pos[rung.left_to_right ? ed.to : ed.from];
    ladder.rungs.push_back(rung);
  }
  if (ladder.rungs.empty()) {
    out.reason = "skeleton block with no cross-link should have been "
                 "SP-reduced; internal error";
    return out;
  }

  // Non-crossing check: lexicographic sort; crossing iff right positions
  // ever strictly decrease (equal positions are shared endpoints, allowed).
  std::sort(ladder.rungs.begin(), ladder.rungs.end(),
            [](const LadderRung& a, const LadderRung& b) {
              return std::tie(a.left_pos, a.right_pos) <
                     std::tie(b.left_pos, b.right_pos);
            });
  for (std::size_t i = 1; i < ladder.rungs.size(); ++i) {
    if (ladder.rungs[i].right_pos < ladder.rungs[i - 1].right_pos) {
      out.reason = "cross-links cross; graph is not CS4 (contains a K4 "
                   "subdivision, Lemma V.6)";
      return out;
    }
  }

  out.ladder = std::move(ladder);
  return out;
}

// Direct construction from the layout: the outer cycle, two closures per
// rung (around the entry, around the exit), and one cycle per usable rung
// pair. A cycle of a non-crossing ladder cannot involve three or more rungs.
// Each cycle walks its first directed path forward, then the second one
// back against its direction, into one reused buffer.
void for_each_ladder_cycle(const Ladder& ladder,
                           const std::function<void(const UCycle&)>& visit) {
  const auto& left = ladder.left_seg;
  const auto& right = ladder.right_seg;
  UCycle cycle;
  cycle.reserve(left.size() + right.size() + 2);
  const auto step = [&](std::size_t skel_edge, bool forward) {
    cycle.push_back(CycleStep{static_cast<EdgeId>(skel_edge), forward});
  };
  // Side segments [from, to), walked forward or back.
  const auto ahead = [&](const std::vector<std::size_t>& segs,
                         std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) step(segs[i], true);
  };
  const auto back = [&](const std::vector<std::size_t>& segs,
                        std::size_t from, std::size_t to) {
    for (std::size_t i = to; i-- > from;) step(segs[i], false);
  };
  const auto emit = [&] {
    visit(cycle);
    cycle.clear();
  };

  // Outer cycle.
  ahead(left, 0, left.size());
  back(right, 0, right.size());
  emit();

  for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
    // Rung a leaves its "near" side and lands on its "far" side.
    const LadderRung& a = ladder.rungs[i];
    const auto& near = a.left_to_right ? left : right;
    const auto& far = a.left_to_right ? right : left;
    const auto near_pos = [&](const LadderRung& r) {
      return a.left_to_right ? r.left_pos : r.right_pos;
    };
    const auto far_pos = [&](const LadderRung& r) {
      return a.left_to_right ? r.right_pos : r.left_pos;
    };
    // Entry closure: X..near + K  vs  X..far; sink at a's head.
    ahead(near, 0, near_pos(a));
    step(a.skel_edge, true);
    back(far, 0, far_pos(a));
    emit();
    // Exit closure: K + far..Y  vs  near..Y; source at a's tail.
    step(a.skel_edge, true);
    ahead(far, far_pos(a), far.size());
    back(near, near_pos(a), near.size());
    emit();
    // Pairs with each later rung b (sorted, so b sits at or after a on both
    // sides): K1, far up to b, b itself (walked against its direction when
    // b runs the same way as a), then near back to a's tail.
    for (std::size_t j = i + 1; j < ladder.rungs.size(); ++j) {
      const LadderRung& b = ladder.rungs[j];
      const bool same = b.left_to_right == a.left_to_right;
      SDAF_ASSERT(near_pos(a) <= near_pos(b) && far_pos(a) <= far_pos(b));
      // Equal near ends: parallel rungs (same) or a directed cycle.
      SDAF_ASSERT(near_pos(a) < near_pos(b) ||
                  (same && far_pos(a) < far_pos(b)));
      step(a.skel_edge, true);
      ahead(far, far_pos(a), far_pos(b));
      step(b.skel_edge, !same);
      back(near, near_pos(a), near_pos(b));
      emit();
    }
  }
}

}  // namespace sdaf
