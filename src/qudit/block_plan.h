// Shared index-arithmetic plan for applying k-local operators.
//
// For a set of target sites, `offsets` enumerates the flat-index
// contributions of all target-digit assignments (sites[0] least
// significant) and `bases` enumerates the contributions of all
// assignments to the remaining sites. Every amplitude index factors
// uniquely as bases[i] + offsets[a].
//
// Plans are pure index arithmetic -- no amplitude data -- so one plan can
// be built once (see exec/plan.h) and shared immutably across threads.
#ifndef QS_QUDIT_BLOCK_PLAN_H
#define QS_QUDIT_BLOCK_PLAN_H

#include <cstddef>
#include <vector>

#include "qudit/space.h"

namespace qs::detail {

/// Precomputed gather/scatter plan for a k-local operator application.
struct BlockPlan {
  std::vector<std::size_t> offsets;  ///< one entry per target-digit tuple
  std::vector<std::size_t> bases;    ///< one entry per non-target tuple

  std::size_t block = 0;  ///< == offsets.size(): operator dimension

  /// Length of the contiguous runs the bases sequence decomposes into:
  /// bases[q * contig_run + r] == bases[q * contig_run] + r for every run
  /// q and 0 <= r < contig_run. The SIMD kernels batch the columns of one
  /// run (consecutive amplitude addresses for each offset) into vector
  /// lanes; contig_run == 1 means no two bases are adjacent and kernels
  /// fall back to per-block processing. For a one-site plan contig_run is
  /// that site's stride (offsets[a] == a * contig_run, and each run holds
  /// every inner position below the site), so the SIMD column walk over a
  /// one-site plan is the site's stride sweep.
  std::size_t contig_run = 1;
};

/// Builds the plan; validates that sites are distinct and in range.
BlockPlan make_block_plan(const QuditSpace& space,
                          const std::vector<int>& sites);

}  // namespace qs::detail

#endif  // QS_QUDIT_BLOCK_PLAN_H
