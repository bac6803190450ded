// The coincidence prefix-growth miners (CoincidencePolicy over
// GrowthEngine).
//
// One policy powers two miners:
//  * P-TPMiner/C — arena-backed pseudo-projection + pair/postfix pruning.
//  * CTMiner     — the physical-projection baseline without pruning,
//    reproducing the cost profile of the CIKM 2010 algorithm.
//
// The search scaffolding lives in miner/growth_engine.h and the projection
// storage in core/projection.h (see docs/ARCHITECTURE.md). See DESIGN.md
// §1.2 for the run-identity containment semantics the projection
// maintains.

#pragma once


#include "core/database.h"
#include "miner/options.h"
#include "util/result.h"

namespace tpm {

Result<CoincidenceMiningResult> MineCoincidenceGrowth(
    const IntervalDatabase& db, const MinerOptions& options,
    const GrowthConfig& config);

}  // namespace tpm

