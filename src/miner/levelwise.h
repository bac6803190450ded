// Level-wise generate-and-test mining (IEMiner-style baseline) and the
// exhaustive brute-force oracle miners.
//
// Both share the breadth-first frontier: level k holds all frequent valid
// (possibly incomplete) endpoint patterns with k items; level k+1 candidates
// are one-item extensions, counted by full-database oracle containment scans.
// The level-wise miner adds the two candidate reductions the published
// IEMiner line uses (frequent-endpoint alphabet, Apriori subpattern check);
// the brute-force miners use neither and exist purely as test oracles.
//
// Level-wise runs honour the budgets but do not checkpoint: a non-null
// MinerOptions::checkpoint_writer or resume is rejected with
// InvalidArgument.

#pragma once


#include "core/database.h"
#include "miner/options.h"
#include "util/result.h"

namespace tpm {

struct LevelwiseConfig {
  /// Restrict extension codes to endpoints of individually frequent symbols.
  bool frequent_alphabet = true;
  /// Prune candidates whose interval-removal subpatterns are infrequent.
  bool apriori_check = true;
};

Result<EndpointMiningResult> MineLevelwiseEndpoint(const IntervalDatabase& db,
                                                   const MinerOptions& options,
                                                   const LevelwiseConfig& config);

Result<CoincidenceMiningResult> MineLevelwiseCoincidence(
    const IntervalDatabase& db, const MinerOptions& options,
    const LevelwiseConfig& config);

}  // namespace tpm

