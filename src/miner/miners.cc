// Concrete miner classes wiring the engines to the public factory API.

#include "miner/miner.h"

#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "miner/levelwise.h"

namespace tpm {

namespace {

class PTPMinerE final : public EndpointMiner {
 public:
  Result<EndpointMiningResult> Mine(const IntervalDatabase& db,
                                    const MinerOptions& options) override {
    return MineEndpointGrowth(db, options, GrowthConfig{});
  }
  std::string name() const override { return "P-TPMiner/E"; }
};

class TPrefixSpanMiner final : public EndpointMiner {
 public:
  Result<EndpointMiningResult> Mine(const IntervalDatabase& db,
                                    const MinerOptions& options) override {
    return MineEndpointGrowth(db, options, GrowthConfig{.baseline = true});
  }
  std::string name() const override { return "TPrefixSpan"; }
};

class LevelwiseEndpointMiner final : public EndpointMiner {
 public:
  Result<EndpointMiningResult> Mine(const IntervalDatabase& db,
                                    const MinerOptions& options) override {
    LevelwiseConfig config;  // frequent alphabet + Apriori check
    return MineLevelwiseEndpoint(db, options, config);
  }
  std::string name() const override { return "IEMiner-LW"; }
};

class PTPMinerC final : public CoincidenceMiner {
 public:
  Result<CoincidenceMiningResult> Mine(const IntervalDatabase& db,
                                       const MinerOptions& options) override {
    return MineCoincidenceGrowth(db, options, GrowthConfig{});
  }
  std::string name() const override { return "P-TPMiner/C"; }
};

class CTMinerImpl final : public CoincidenceMiner {
 public:
  Result<CoincidenceMiningResult> Mine(const IntervalDatabase& db,
                                       const MinerOptions& options) override {
    return MineCoincidenceGrowth(db, options, GrowthConfig{.baseline = true});
  }
  std::string name() const override { return "CTMiner"; }
};

class BruteForceEndpoint final : public EndpointMiner {
 public:
  Result<EndpointMiningResult> Mine(const IntervalDatabase& db,
                                    const MinerOptions& options) override {
    LevelwiseConfig config;
    config.frequent_alphabet = false;
    config.apriori_check = false;
    return MineLevelwiseEndpoint(db, options, config);
  }
  std::string name() const override { return "BruteForce/E"; }
};

class BruteForceCoincidence final : public CoincidenceMiner {
 public:
  Result<CoincidenceMiningResult> Mine(const IntervalDatabase& db,
                                       const MinerOptions& options) override {
    LevelwiseConfig config;
    config.frequent_alphabet = false;
    config.apriori_check = false;
    return MineLevelwiseCoincidence(db, options, config);
  }
  std::string name() const override { return "BruteForce/C"; }
};

}  // namespace

std::unique_ptr<EndpointMiner> MakePTPMinerE() {
  return std::make_unique<PTPMinerE>();
}
std::unique_ptr<CoincidenceMiner> MakePTPMinerC() {
  return std::make_unique<PTPMinerC>();
}
std::unique_ptr<EndpointMiner> MakeTPrefixSpan() {
  return std::make_unique<TPrefixSpanMiner>();
}
std::unique_ptr<EndpointMiner> MakeLevelwiseMiner() {
  return std::make_unique<LevelwiseEndpointMiner>();
}
std::unique_ptr<CoincidenceMiner> MakeCTMiner() {
  return std::make_unique<CTMinerImpl>();
}
std::unique_ptr<EndpointMiner> MakeBruteForceEndpointMiner() {
  return std::make_unique<BruteForceEndpoint>();
}
std::unique_ptr<CoincidenceMiner> MakeBruteForceCoincidenceMiner() {
  return std::make_unique<BruteForceCoincidence>();
}

}  // namespace tpm
