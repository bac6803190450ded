// The endpoint prefix-growth miners (EndpointPolicy over GrowthEngine).
//
// One policy powers two miners:
//  * P-TPMiner/E  — arena-backed pseudo-projection (occurrence states) +
//    pair/postfix/validity pruning; the paper's contribution.
//  * TPrefixSpan  — the physical-projection baseline: every node copies its
//    postfixes before scanning and uses no pruning, reproducing the cost
//    profile of Wu & Chen's algorithm.
//
// The search scaffolding lives in miner/growth_engine.h and the projection
// storage in core/projection.h (see docs/ARCHITECTURE.md). See DESIGN.md
// §2.1 for the search-space definition and §1.1 for the containment
// semantics the projection maintains.

#pragma once


#include "core/database.h"
#include "miner/options.h"
#include "util/result.h"

namespace tpm {

/// Runs the prefix-growth search. The database must be valid.
Result<EndpointMiningResult> MineEndpointGrowth(const IntervalDatabase& db,
                                                const MinerOptions& options,
                                                const GrowthConfig& config);

}  // namespace tpm

