// Pinned search counts: on one fixed QUEST database, both growth miners at
// --threads=1 under every pruning mask must expand, check and create exactly
// the numbers below. The other suites compare counts only across thread
// counts; these pin them absolutely, so a change to how the candidate scan
// memoizes its per-node decisions cannot shift a count unnoticed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/coincidence.h"
#include "core/containment.h"
#include "core/endpoint.h"
#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

enum Lang { kEndpoint, kCoincidence };

struct PinnedCounts {
  Lang lang;
  uint32_t mask;  ///< bit 0 pair, bit 1 postfix, bit 2 validity pruning
  uint64_t nodes;
  uint64_t candidates;
  uint64_t states;
  uint64_t patterns;
  uint64_t pair_hits;
  uint64_t postfix_hits;
  uint64_t scan_items;
};

// nodes, states and patterns were measured with the engine that memoized
// each node's extension decisions in an unordered_map, before the slot
// table replaced it. candidates and postfix_hits were re-measured when the
// scan started skipping disallowed symbols: a skipped symbol no longer
// reaches admission, and postfix_hits counts the (node, symbol) pairs
// postfix counting removes (PostfixHitsMatchAnIndependentRecount below).
// scan_items was measured when each span's scan moved to a list of the
// items a state may extend with; without pruning it is the physical
// baselines' copy size (ScanItemsWithoutPruningMatchTheBaselineCopies).
// Endpoint masks 6 and 7 were re-measured when postfix counting came to
// count exactly the listed items: under validity pruning the list holds
// starts only, so symbols whose postfixes hold only their finish are
// dropped from the allowed set (PostfixHitsMatchAnIndependentRecount), and
// candidates, states, scan_items and, at mask 7, pair_hits fall with them.
const std::vector<PinnedCounts>& Golden() {
  static const std::vector<PinnedCounts> golden = {
      {kEndpoint, 0, 217, 3369, 17774, 51, 0, 0, 33884},
      {kEndpoint, 1, 217, 3369, 14384, 51, 1181, 0, 33884},
      {kEndpoint, 2, 217, 1499, 11726, 51, 0, 1021, 28486},
      {kEndpoint, 3, 217, 1499, 10617, 51, 276, 1021, 28486},
      {kEndpoint, 4, 217, 3369, 17774, 51, 0, 0, 13719},
      {kEndpoint, 5, 217, 3369, 14384, 51, 1181, 0, 13719},
      {kEndpoint, 6, 217, 1130, 10099, 51, 0, 795, 6801},
      {kEndpoint, 7, 217, 1130, 9151, 51, 217, 795, 6801},
      {kCoincidence, 0, 401, 8268, 153522, 400, 0, 0, 88270},
      {kCoincidence, 1, 401, 8268, 115016, 400, 3510, 0, 88270},
      {kCoincidence, 2, 401, 2405, 78815, 400, 0, 1391, 42525},
      {kCoincidence, 3, 401, 2405, 69963, 400, 444, 1391, 42525},
      {kCoincidence, 4, 401, 8268, 153522, 400, 0, 0, 88270},
      {kCoincidence, 5, 401, 8268, 115016, 400, 3510, 0, 88270},
      {kCoincidence, 6, 401, 2405, 78815, 400, 0, 1391, 42525},
      {kCoincidence, 7, 401, 2405, 69963, 400, 444, 1391, 42525},
  };
  return golden;
}

IntervalDatabase MakeDb() {
  QuestConfig config;
  config.num_sequences = 80;
  config.avg_intervals_per_sequence = 8.0;
  config.num_symbols = 16;
  config.num_potential_patterns = 10;
  config.pattern_injection_prob = 0.7;
  config.seed = 20;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions BaseOptions(uint32_t pruning_mask) {
  MinerOptions options;
  options.min_support = 0.15;
  options.threads = 1;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

void ExpectCounts(const PinnedCounts& want, const MiningStats& got) {
  EXPECT_EQ(got.nodes_expanded, want.nodes);
  EXPECT_EQ(got.candidates_checked, want.candidates);
  EXPECT_EQ(got.states_created, want.states);
  EXPECT_EQ(got.patterns_found, want.patterns);
#ifndef TPM_OBS_DISABLED
  EXPECT_EQ(got.metrics.CounterValue("prune.pair.hits"), want.pair_hits);
  EXPECT_EQ(got.metrics.CounterValue("prune.postfix.hits"), want.postfix_hits);
  EXPECT_EQ(got.metrics.CounterValue("search.scan_items"), want.scan_items);
#endif
}

TEST(PinnedSearchCountsTest, BothLanguagesEveryPruningMask) {
  const IntervalDatabase db = MakeDb();
  for (const PinnedCounts& want : Golden()) {
    SCOPED_TRACE(::testing::Message()
                 << (want.lang == kEndpoint ? "endpoint" : "coincidence")
                 << " mask=" << want.mask);
    const MinerOptions options = BaseOptions(want.mask);
    if (want.lang == kEndpoint) {
      auto r = MineEndpointGrowth(db, options, GrowthConfig{});
      ASSERT_TRUE(r.ok()) << r.status();
      ExpectCounts(want, r->stats);
    } else {
      auto r = MineCoincidenceGrowth(db, options, GrowthConfig{});
      ASSERT_TRUE(r.ok()) << r.status();
      ExpectCounts(want, r->stats);
    }
  }
}

// Without pair or postfix pruning (and, for endpoints, without validity
// pruning) every postfix item is listed, so P-TPMiner scans exactly as many
// items as the physical baselines copy.
TEST(PinnedSearchCountsTest, ScanItemsWithoutPruningMatchTheBaselineCopies) {
#ifndef TPM_OBS_DISABLED
  const IntervalDatabase db = MakeDb();
  const MinerOptions options = BaseOptions(0);
  const GrowthConfig baseline{.baseline = true};
  auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
  auto tps = MineEndpointGrowth(db, options, baseline);
  auto co = MineCoincidenceGrowth(db, options, GrowthConfig{});
  auto ctm = MineCoincidenceGrowth(db, options, baseline);
  ASSERT_TRUE(ep.ok() && tps.ok() && co.ok() && ctm.ok());
  EXPECT_EQ(ep->stats.metrics.CounterValue("search.scan_items"),
            tps->stats.metrics.CounterValue("search.scan_items"));
  EXPECT_EQ(co->stats.metrics.CounterValue("search.scan_items"),
            ctm->stats.metrics.CounterValue("search.scan_items"));
  EXPECT_GT(co->stats.metrics.CounterValue("search.scan_items"), 0u);
#endif
}

// The physical baselines charge each node's postfix copy to the run's
// memory account while the node's subtree is live, so their peak tracked
// bytes (build + arenas + patterns + the deepest stack of copies) are
// pinned: a scan-list change that stopped charging the copy moves them. At
// --threads=1 the peak is deterministic; the two runs must agree. The
// TPrefixSpan pin moved by exactly its build_bytes change when the endpoint
// slice arrays came to be sized exactly (367,244 before). Both pins moved by
// exactly their build_bytes change again when each language came to be
// stored in database-wide arrays: TPrefixSpan 41,672 -> 32,404 build bytes
// (361,652 before), CTMiner 89,840 -> 43,548 (507,600 before).
TEST(PinnedSearchCountsTest, BaselinePeakTrackedBytes) {
  const IntervalDatabase db = MakeDb();
  const MinerOptions options = BaseOptions(0);
  const GrowthConfig baseline{.baseline = true};
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(::testing::Message() << "run=" << run);
    auto tps = MineEndpointGrowth(db, options, baseline);
    auto ctm = MineCoincidenceGrowth(db, options, baseline);
    ASSERT_TRUE(tps.ok() && ctm.ok());
    EXPECT_EQ(tps->stats.peak_tracked_bytes, 352384u);
    EXPECT_EQ(ctm->stats.peak_tracked_bytes, 461308u);
  }
}

// The item index at which the earliest-ending occurrence of `pat` in `cs`
// ends (its last symbol in the last matched segment), or kNone. A plain
// backtracking matcher under run-identity semantics: a symbol shared by two
// consecutive coincidences must be matched by the same data interval, told
// apart by segment times (testing::SameInterval), not by the miner's
// alive_until bounds.
class EarliestEnd {
 public:
  static constexpr uint32_t kNone = ~0u;

  EarliestEnd(const CoincidenceSequence& cs, const CoincidencePattern& pat)
      : cs_(cs), pat_(pat) {}

  uint32_t Find() {
    Match(0, 0, {});
    return best_;
  }

 private:
  // `prev` holds the items matched by coincidence j - 1.
  void Match(uint32_t j, uint32_t min_seg, const std::vector<uint32_t>& prev) {
    for (uint32_t g = min_seg; g < cs_.num_segments(); ++g) {
      std::vector<uint32_t> cur;
      bool ok = true;
      for (uint32_t k = pat_.coin_begin(j); ok && k < pat_.coin_end(j); ++k) {
        const uint32_t p = cs_.FindInSegment(g, pat_.item(k));
        ok = p != CoincidenceSequence::kNotFoundItem;
        for (uint32_t q : prev) {
          if (ok && cs_.item(q) == pat_.item(k)) {
            ok = testing::SameInterval(cs_, q, p);
          }
        }
        cur.push_back(p);
      }
      if (!ok) continue;
      if (j + 1 == pat_.num_coincidences()) {
        best_ = std::min(best_, cur.back());
      } else {
        Match(j + 1, g + 1, cur);
      }
    }
  }

  const CoincidenceSequence cs_;
  const CoincidencePattern& pat_;
  uint32_t best_ = kNone;
};

// The pattern one item shorter: the search-tree parent of `pat`.
CoincidencePattern Parent(const CoincidencePattern& pat) {
  std::vector<EventId> items = pat.items();
  std::vector<uint32_t> offsets = pat.offsets();
  items.pop_back();
  offsets.back() = static_cast<uint32_t>(items.size());
  if (offsets.size() >= 2 && offsets[offsets.size() - 2] == items.size()) {
    offsets.pop_back();
  }
  if (items.empty()) offsets.clear();
  return CoincidencePattern(std::move(items), std::move(offsets));
}

// prune.postfix.hits recomputed from its definition: over every expanded
// node N, the symbols of N's allowed set that fewer than minsup of N's
// projected postfixes contain. The root's allowed set is the whole alphabet
// (so the frequent-symbol filter is the root's removal), and a child's is
// its parent's narrowed set. A postfix is what follows the earliest end of
// N's occurrence in a sequence; the root's is the whole sequence.
TEST(PinnedSearchCountsTest, PostfixHitsMatchAnIndependentRecount) {
  const IntervalDatabase db = MakeDb();
  const CoincidenceDatabase cdb = CoincidenceDatabase::FromDatabase(db);
  const size_t num_symbols = db.dict().size();
  for (uint32_t mask : {2u, 3u, 6u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "mask=" << mask);
    const MinerOptions options = BaseOptions(mask);
    const SupportCount minsup = db.AbsoluteSupport(options.min_support);
    auto r = MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(r.ok()) << r.status();
    // Every coincidence node but the root emits its pattern.
    ASSERT_EQ(r->stats.nodes_expanded, r->patterns.size() + 1);
    std::vector<CoincidencePattern> nodes = {CoincidencePattern()};
    for (const auto& mp : r->patterns) nodes.push_back(mp.pattern);
    std::stable_sort(nodes.begin(), nodes.end(),
                     [](const CoincidencePattern& a,
                        const CoincidencePattern& b) {
                       return a.num_items() < b.num_items();
                     });
    std::map<CoincidencePattern, std::vector<uint8_t>> child_allowed;
    uint64_t hits = 0;
    for (const CoincidencePattern& node : nodes) {
      const std::vector<uint8_t> allowed =
          node.empty() ? std::vector<uint8_t>(num_symbols, 1)
                       : child_allowed.at(Parent(node));
      std::vector<SupportCount> count(num_symbols, 0);
      for (size_t q = 0; q < cdb.size(); ++q) {
        const CoincidenceSequence cs = cdb[q];
        uint32_t from = 0;
        if (!node.empty()) {
          const uint32_t end = EarliestEnd(cs, node).Find();
          if (end == EarliestEnd::kNone) continue;
          from = end + 1;
        }
        std::vector<uint8_t> seen(num_symbols, 0);
        for (uint32_t p = from; p < cs.num_items(); ++p) seen[cs.item(p)] = 1;
        for (size_t e = 0; e < num_symbols; ++e) count[e] += seen[e];
      }
      std::vector<uint8_t>& child = child_allowed[node];
      child = allowed;
      for (size_t e = 0; e < num_symbols; ++e) {
        if (allowed[e] != 0 && count[e] < minsup) {
          child[e] = 0;
          ++hits;
        }
      }
    }
    EXPECT_GT(hits, 0u);
#ifndef TPM_OBS_DISABLED
    EXPECT_EQ(r->stats.metrics.CounterValue("prune.postfix.hits"), hits);
#endif
  }
}

// The item index at which the earliest-ending occurrence of the endpoint
// pattern `pat` in `es` ends (its last item, in the last matched slice), or
// kNone. A plain backtracking matcher under partner-consistent matching,
// like the Contains oracle: a finish must be the partner of its pattern
// start's match, and a start left open constrains nothing.
class EndpointEarliestEnd {
 public:
  static constexpr uint32_t kNone = ~0u;

  EndpointEarliestEnd(const EndpointSequence& es, const EndpointPattern& pat)
      : es_(es), pat_(pat) {}

  uint32_t Find() {
    Match(0, 0, {});
    return best_;
  }

 private:
  // `open` maps each open symbol to the item its finish must match.
  using Open = std::vector<std::pair<EventId, uint32_t>>;

  void Match(uint32_t j, uint32_t min_slice, const Open& open) {
    for (uint32_t g = min_slice; g < es_.num_slices(); ++g) {
      Open next = open;
      uint32_t last = kNone;
      bool ok = true;
      for (uint32_t k = pat_.slice_begin(j); ok && k < pat_.slice_end(j);
           ++k) {
        const EndpointCode c = pat_.item(k);
        const EventId ev = EndpointEvent(c);
        last = es_.FindInSlice(g, c);
        ok = last != EndpointSequence::kNotFoundItem;
        if (!ok) break;
        if (!IsFinish(c)) {
          next.emplace_back(ev, es_.partner(last));
          continue;
        }
        auto it = std::find_if(next.begin(), next.end(),
                               [ev](const auto& o) { return o.first == ev; });
        ok = it != next.end() && it->second == last;
        if (ok) next.erase(it);
      }
      if (!ok) continue;
      if (j + 1 == pat_.num_slices()) {
        best_ = std::min(best_, last);
      } else {
        Match(j + 1, g + 1, next);
      }
    }
  }

  const EndpointSequence es_;
  const EndpointPattern& pat_;
  uint32_t best_ = kNone;
};

// The endpoint pattern one item shorter: the search-tree parent of `pat`.
EndpointPattern Parent(const EndpointPattern& pat) {
  std::vector<EndpointCode> items = pat.items();
  std::vector<uint32_t> offsets = pat.offsets();
  items.pop_back();
  offsets.back() = static_cast<uint32_t>(items.size());
  if (offsets[offsets.size() - 2] == items.size()) offsets.pop_back();
  if (items.empty()) offsets.clear();
  return EndpointPattern(std::move(items), std::move(offsets));
}

// `pat` grown by `code`: into its last slice (i_ext) or as a new slice.
EndpointPattern Extend(const EndpointPattern& pat, EndpointCode code,
                       bool i_ext) {
  std::vector<EndpointCode> items = pat.items();
  std::vector<uint32_t> offsets = pat.offsets();
  if (offsets.empty()) offsets.push_back(0);
  items.push_back(code);
  if (i_ext) {
    offsets.back() = static_cast<uint32_t>(items.size());
  } else {
    offsets.push_back(static_cast<uint32_t>(items.size()));
  }
  return EndpointPattern(std::move(items), std::move(offsets));
}

// The endpoint half of the recount above. The search tree is enumerated
// from the Contains oracle alone: a node is every structurally valid
// pattern, complete or not, that minsup sequences contain, so it must have
// exactly the miner's node count. Postfix counting counts the items the
// node's scan lists: starts, and finishes only with validity pruning off
// (validity closes come from the obligations, never from the list).
TEST(PinnedSearchCountsTest, EndpointPostfixHitsMatchAnIndependentRecount) {
  const IntervalDatabase db = MakeDb();
  const EndpointDatabase edb = EndpointDatabase::FromDatabase(db);
  const size_t num_symbols = db.dict().size();
  const SupportCount minsup = db.AbsoluteSupport(BaseOptions(0).min_support);

  // Breadth-first, so every parent precedes its children.
  std::vector<EndpointPattern> nodes = {EndpointPattern()};
  for (size_t i = 0; i < nodes.size(); ++i) {
    const EndpointPattern node = nodes[i];
    for (bool i_ext : {true, false}) {
      if (i_ext && node.empty()) continue;
      for (EndpointCode c = 0; c < 2 * num_symbols; ++c) {
        if (i_ext && c <= node.items().back()) continue;
        EndpointPattern child = Extend(node, c, i_ext);
        if (!child.Validate().ok()) continue;
        if (CountSupport(edb, child) >= minsup) nodes.push_back(child);
      }
    }
  }

  for (uint32_t mask : {2u, 3u, 6u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "mask=" << mask);
    const MinerOptions options = BaseOptions(mask);
    const bool list_finishes = !options.validity_pruning;
    auto r = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->stats.nodes_expanded, nodes.size());
    std::map<EndpointPattern, std::vector<uint8_t>> child_allowed;
    uint64_t hits = 0;
    for (const EndpointPattern& node : nodes) {
      const std::vector<uint8_t> allowed =
          node.empty() ? std::vector<uint8_t>(num_symbols, 1)
                       : child_allowed.at(Parent(node));
      std::vector<SupportCount> count(num_symbols, 0);
      for (size_t q = 0; q < edb.size(); ++q) {
        const EndpointSequence es = edb[q];
        uint32_t from = 0;
        if (!node.empty()) {
          const uint32_t end = EndpointEarliestEnd(es, node).Find();
          if (end == EndpointEarliestEnd::kNone) continue;
          from = end + 1;
        }
        std::vector<uint8_t> seen(num_symbols, 0);
        for (uint32_t p = from; p < es.num_items(); ++p) {
          if (IsFinish(es.item(p)) && !list_finishes) continue;
          seen[EndpointEvent(es.item(p))] = 1;
        }
        for (size_t e = 0; e < num_symbols; ++e) count[e] += seen[e];
      }
      std::vector<uint8_t>& child = child_allowed[node];
      child = allowed;
      for (size_t e = 0; e < num_symbols; ++e) {
        if (allowed[e] != 0 && count[e] < minsup) {
          child[e] = 0;
          ++hits;
        }
      }
    }
    EXPECT_GT(hits, 0u);
#ifndef TPM_OBS_DISABLED
    EXPECT_EQ(r->stats.metrics.CounterValue("prune.postfix.hits"), hits);
#endif
  }
}

}  // namespace
}  // namespace tpm
