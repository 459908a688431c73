#include "clusterfile/repair.h"

#include <algorithm>

#include "util/log.h"

namespace pfm {

std::vector<CopyEntry> plan_repairs(
    const std::vector<std::vector<int>>& placement, int dead_node,
    int compute_nodes, int io_nodes,
    const std::function<bool(int)>& node_dead) {
  // Replica count per candidate node, from the placement plus what this
  // plan has already assigned: one dead node usually loses many subfiles
  // at once, and counting in-plan assignments spreads them instead of
  // stacking every replacement on the same emptiest node.
  std::vector<int> load(static_cast<std::size_t>(io_nodes), 0);
  for (const std::vector<int>& reps : placement)
    for (const int node : reps) {
      const int k = node - compute_nodes;
      if (k >= 0 && k < io_nodes) ++load[static_cast<std::size_t>(k)];
    }
  std::vector<CopyEntry> plan;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const std::vector<int>& reps = placement[i];
    if (std::find(reps.begin(), reps.end(), dead_node) == reps.end()) continue;
    // Least-loaded usable node not already holding the subfile; ties break
    // to the lowest node id. The ascending scan makes the whole plan a
    // deterministic function of (placement, liveness) — reproducible under
    // a pinned fault seed.
    int replacement = -1;
    for (int k = 0; k < io_nodes; ++k) {
      const int node = compute_nodes + k;
      if (node_dead(node)) continue;
      if (std::find(reps.begin(), reps.end(), node) != reps.end()) continue;
      if (replacement < 0 ||
          load[static_cast<std::size_t>(k)] <
              load[static_cast<std::size_t>(replacement - compute_nodes)])
        replacement = node;
    }
    if (replacement >= 0) ++load[static_cast<std::size_t>(replacement - compute_nodes)];
    if (replacement < 0) {
      PFM_WARN("repair: no usable replacement for subfile ", i,
               " (dead node ", dead_node, ")");
      continue;
    }
    CopyEntry e;
    e.subfile = static_cast<int>(i);
    e.target_node = replacement;
    e.retired_node = dead_node;
    for (const int node : reps)
      if (node != dead_node) e.new_replicas.push_back(node);
    e.new_replicas.push_back(replacement);
    plan.push_back(std::move(e));
  }
  return plan;
}

}  // namespace pfm
