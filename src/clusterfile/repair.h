// Repair planner (DESIGN.md "Self-healing").
//
// When the failure detector declares an I/O node dead, every subfile it
// hosted is under-replicated. The planner computes, per such subfile, a
// replacement placement: the dead node is dropped, the least-loaded usable
// node not already holding the subfile is chosen (load = replicas it holds
// in the given placement plus those this plan already assigned to it; ties
// break to the lowest node id, so plans are reproducible under a pinned
// seed). The copy itself is the paper's redistribution algebra in its
// degenerate case: the transfer set is INTERSECT of the subfile's FALLS
// with itself (the whole subfile), so a repair is a CopyEntry like any
// migration and runs through the same copy-and-publish path — one
// unchunked full-range pull over the epoch re-sync transfer path
// (kSyncRequest/kSyncReply), fault injection live.
#pragma once

#include <functional>
#include <vector>

#include "clusterfile/rebalance.h"

namespace pfm {

/// Computes replacement placements for every subfile whose current
/// placement includes `dead_node`. `placement` is the full replica table
/// (primary first per subfile); I/O nodes occupy the id range
/// [compute_nodes, compute_nodes + io_nodes) — with provisioned spare
/// capacity, pass the full provisioned range. `node_dead(id)` reports
/// whether a candidate node is unusable as a placement target (dead,
/// crashed, spare, retired, or draining — a draining node must not gain
/// copies the decommission is busy moving off it). Selection is
/// least-loaded with ties to the lowest node id, counting both the given
/// placement and earlier assignments of this same plan, so one dead node's
/// subfiles spread over the survivors deterministically. Subfiles with no
/// usable replacement candidate are skipped — they stay under-replicated
/// until a node returns. Each entry's retired_node is `dead_node`; its
/// new_replicas drop the dead node and append the replacement.
std::vector<CopyEntry> plan_repairs(
    const std::vector<std::vector<int>>& placement, int dead_node,
    int compute_nodes, int io_nodes,
    const std::function<bool(int)>& node_dead);

}  // namespace pfm
