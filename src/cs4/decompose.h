// CS4 analysis driver (Theorem V.7): a single-source, single-sink DAG is
// CS4 iff it is a serial composition of SP-DAGs and SP-ladders. The driver
// contracts the graph to its skeleton, splits the skeleton into biconnected
// blocks (= the serial chain), recognizes each multi-edge block as an
// SP-ladder, and exposes everything the interval engines need.
#pragma once

#include <string>
#include <vector>

#include "src/cs4/ladder.h"
#include "src/cs4/skeleton.h"
#include "src/graph/stream_graph.h"
#include "src/intervals/interval_map.h"

namespace sdaf {

struct Cs4Analysis {
  bool two_terminal = false;
  bool is_cs4 = false;
  bool pure_sp = false;  // the whole graph reduced to one super-edge
  std::string reason;    // why not CS4, when applicable

  Skeleton skeleton;
  std::vector<Ladder> ladders;  // one per multi-edge skeleton block
};

[[nodiscard]] Cs4Analysis analyze_cs4(const StreamGraph& g);

enum class LadderMethod {
  // Exact minimization over the ladder's skeleton cycles (reference).
  Enumeration,
  // The paper's O(|G|) Ls/Lk/Ld recurrences of Section VI.A, plus a fixup
  // for rungs sharing a source vertex (see RecurrenceOptions in
  // propagation_ladder.h).
  PaperRecurrence,
};

// Propagation-Algorithm intervals for a CS4 graph. Precondition:
// analysis.is_cs4.
[[nodiscard]] IntervalMap cs4_propagation_intervals(
    const StreamGraph& g, const Cs4Analysis& analysis,
    LadderMethod method = LadderMethod::Enumeration);

// Non-Propagation-Algorithm intervals (Section VI.B, O(|G|^3)).
[[nodiscard]] IntervalMap cs4_nonprop_intervals(const StreamGraph& g,
                                                const Cs4Analysis& analysis);

}  // namespace sdaf
