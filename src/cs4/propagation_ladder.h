// Propagation-Algorithm interval bounds contributed by the *external*
// cycles of one SP-ladder (Section VI.A). Both engines return, per skeleton
// component, the tightest bound V any ladder cycle imposes on edges leaving
// that component's source; the CS4 driver then threads V through each
// component with SETIVALS.
#pragma once

#include <vector>

#include "src/cs4/ladder.h"
#include "src/cs4/skeleton.h"
#include "src/support/rational.h"

namespace sdaf {

// Exact: minimizes over the ladder's (polynomially many) skeleton cycles,
// visited one at a time. O(k^2) cycles for k rungs.
[[nodiscard]] std::vector<Rational> ladder_component_bounds_enum(
    const Skeleton& skel, const Ladder& ladder);

struct RecurrenceOptions {
  // The paper's recurrences miss cycles pairing two cross-links that share
  // a source vertex (Fig. 6 allows shared endpoints but Section VI.A's
  // update rules consult only one cross-link per virtual position). The
  // fixup adds those pairwise constraints; disable for a paper-literal run.
  bool shared_endpoint_fixup = true;
};

// The paper's O(|G|) bottom-up Ls/Lk/Ld recurrences over virtual per-rung
// positions. Exact on ladders without shared rung endpoints; with the
// fixup enabled it is safe (never looser than exact) everywhere and may be
// tighter than exact only in degenerate shared-endpoint stop cases.
[[nodiscard]] std::vector<Rational> ladder_component_bounds_recurrence(
    const Skeleton& skel, const Ladder& ladder, RecurrenceOptions options);

}  // namespace sdaf
