#include "qudit/block_plan.h"

#include "common/require.h"

namespace qs::detail {

BlockPlan make_block_plan(const QuditSpace& space,
                          const std::vector<int>& sites) {
  require(!sites.empty(), "make_block_plan: empty site list");
  std::vector<bool> used(space.num_sites(), false);
  std::size_t block = 1;
  for (int s : sites) {
    require(s >= 0 && static_cast<std::size_t>(s) < space.num_sites(),
            "make_block_plan: site index out of range");
    require(!used[static_cast<std::size_t>(s)],
            "make_block_plan: duplicate site");
    used[static_cast<std::size_t>(s)] = true;
    block *= static_cast<std::size_t>(space.dim(static_cast<std::size_t>(s)));
  }

  BlockPlan plan;
  plan.offsets.assign(block, 0);
  for (std::size_t a = 0; a < block; ++a) {
    std::size_t rem = a;
    std::size_t off = 0;
    for (int s : sites) {
      const auto d =
          static_cast<std::size_t>(space.dim(static_cast<std::size_t>(s)));
      off += (rem % d) * space.stride(static_cast<std::size_t>(s));
      rem /= d;
    }
    plan.offsets[a] = off;
  }

  std::vector<std::size_t> cdims, cstrides;
  for (std::size_t s = 0; s < space.num_sites(); ++s) {
    if (!used[s]) {
      cdims.push_back(static_cast<std::size_t>(space.dim(s)));
      cstrides.push_back(space.stride(s));
    }
  }
  std::size_t m = 1;
  for (std::size_t d : cdims) m *= d;
  plan.bases.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t rem = i;
    std::size_t off = 0;
    for (std::size_t j = 0; j < cdims.size(); ++j) {
      off += (rem % cdims[j]) * cstrides[j];
      rem /= cdims[j];
    }
    plan.bases[i] = off;
  }

  // Contiguous-run length of the bases sequence: the little-endian
  // enumeration above emits runs of consecutive addresses exactly while
  // the complement strides keep matching the running dimension product
  // (i.e. the low complement sites form a dense prefix of the index).
  std::size_t run = 1;
  for (std::size_t j = 0; j < cdims.size(); ++j) {
    if (cstrides[j] != run) break;
    run *= cdims[j];
  }
  plan.contig_run = run;

  plan.block = block;
  return plan;
}

}  // namespace qs::detail
