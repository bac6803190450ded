// Dataset exploration workflow: profile an unknown interval dataset, mine it
// once at a modest support threshold, and read the strongest multi-interval
// structure — the "first hour with a new dataset" recipe.
//
//   $ ./examples/dataset_exploration [path/to/db.tisd]
//
// Without an argument, a synthetic QUEST dataset stands in for "your data".

#include <cstdio>
#include <vector>

#include "analysis/postprocess.h"
#include "analysis/profile.h"
#include "analysis/render.h"
#include "datagen/quest.h"
#include "io/loader.h"
#include "miner/miner.h"

using namespace tpm;

int main(int argc, char** argv) {
  // 1. Obtain a database: from disk, or synthesized.
  IntervalDatabase db;
  if (argc > 1) {
    TextReadOptions read_options;
    read_options.merge_conflicts = true;  // be forgiving with foreign data
    auto loaded = LoadDatabase(argv[1], read_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).ValueOrDie();
  } else {
    QuestConfig config;
    config.num_sequences = 500;
    config.num_symbols = 60;
    config.avg_intervals_per_sequence = 7.0;
    config.seed = 99;
    auto generated = GenerateQuest(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    db = std::move(generated).ValueOrDie();
    std::printf("(no input given; exploring a synthetic %s dataset)\n\n",
                config.Name().c_str());
  }

  // 2. Profile: what does this data look like?
  std::printf("== Profile ==\n%s\n", ProfileReport(db, 8).c_str());

  // 3. Mine once at 4% support and rank the multi-interval arrangements
  //    (at least four endpoints) by support: the 15 strongest.
  MinerOptions options;
  options.min_support = 0.04;
  options.max_items = 8;
  auto mined = MakePTPMinerE()->Mine(db, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  std::vector<MinedPattern<EndpointPattern>> multi;
  for (const auto& mp : mined->patterns) {
    if (mp.pattern.num_items() >= 4) multi.push_back(mp);
  }
  const auto top = TopKBySupport(std::move(multi), 15);
  std::printf("== Top %zu multi-interval arrangements ==\n", top.size());
  std::printf("(mined at support %.0f%%: %zu patterns)\n\n",
              100.0 * options.min_support, mined->patterns.size());
  for (const auto& [pattern, support] : top) {
    std::printf("  %5.1f%%  %s\n", 100.0 * support / static_cast<double>(db.size()),
                DescribeArrangement(pattern, db.dict()).c_str());
  }

  // 4. Zoom into the single strongest arrangement as a timeline.
  if (!top.empty()) {
    std::printf("\nStrongest arrangement, slice by slice:\n%s",
                RenderTimeline(top.front().pattern, db.dict()).c_str());
  }
  return 0;
}
