#include "analysis/topk.h"

#include <algorithm>
#include <limits>

#include "analysis/postprocess.h"
#include "miner/miner.h"
#include "util/macros.h"

namespace tpm {

namespace {

template <typename PatternT, typename MineFn>
Result<MiningResult<PatternT>> MineTopKImpl(const IntervalDatabase& db, size_t k,
                                            MinerOptions options,
                                            uint32_t min_items, TopKStats* stats,
                                            MineFn mine) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (db.empty()) {
    MiningResult<PatternT> empty;
    if (stats != nullptr) *stats = TopKStats{};
    return empty;
  }

  // Start at half the database (any pattern this common is certainly in the
  // top-k for realistic k) and back off geometrically.
  SupportCount threshold =
      std::max<SupportCount>(1, static_cast<SupportCount>(db.size() / 2));
  TopKStats local;
  MiningResult<PatternT> result;
  while (true) {
    ++local.rounds;
    // A count of 1 cannot pass as 1.0, which reads as the fraction 100%. The
    // miners reject 0.0, but AbsoluteSupport rounds any tiny positive
    // fraction up to 1.
    options.min_support = threshold > 1 ? static_cast<double>(threshold)
                                        : std::numeric_limits<double>::min();
    // When min_items filtering is requested, small patterns do not count
    // toward k, so never cap the raw pattern stream.
    TPM_ASSIGN_OR_RETURN(result, mine(db, options));
    if (result.stats.truncated) {
      return Status::ResourceExhausted(
          "top-k back-off hit a mining cap; raise time budget or k");
    }
    size_t eligible = 0;
    for (const auto& mp : result.patterns) {
      if (mp.pattern.num_items() >= min_items) ++eligible;
    }
    if (eligible >= k || threshold == 1) break;
    threshold = std::max<SupportCount>(1, threshold / 2);
  }

  if (min_items > 0) {
    std::vector<MinedPattern<PatternT>> kept;
    for (auto& mp : result.patterns) {
      if (mp.pattern.num_items() >= min_items) kept.push_back(std::move(mp));
    }
    result.patterns = std::move(kept);
  }
  result.patterns = TopKBySupport(std::move(result.patterns), k);
  result.stats.patterns_found = result.patterns.size();

  local.final_threshold = threshold;
  local.kth_support =
      result.patterns.empty() ? 0 : result.patterns.back().support;
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace

Result<EndpointMiningResult> MineTopKEndpoint(const IntervalDatabase& db,
                                              size_t k, MinerOptions options,
                                              uint32_t min_items,
                                              TopKStats* stats) {
  return MineTopKImpl<EndpointPattern>(
      db, k, options, min_items, stats,
      [](const IntervalDatabase& d, const MinerOptions& o) {
        return MakePTPMinerE()->Mine(d, o);
      });
}

Result<CoincidenceMiningResult> MineTopKCoincidence(const IntervalDatabase& db,
                                                    size_t k, MinerOptions options,
                                                    uint32_t min_items,
                                                    TopKStats* stats) {
  return MineTopKImpl<CoincidencePattern>(
      db, k, options, min_items, stats,
      [](const IntervalDatabase& d, const MinerOptions& o) {
        return MakePTPMinerC()->Mine(d, o);
      });
}

}  // namespace tpm
