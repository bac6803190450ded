#include "analysis/postprocess.h"

#include <algorithm>

#include "core/containment.h"
#include "core/endpoint.h"
#include "core/sequence.h"

namespace tpm {

bool IsSubPattern(const EndpointPattern& sub, const EndpointPattern& super) {
  if (sub.num_items() > super.num_items()) return false;
  EventSequence realization(super.ToCanonicalIntervals());
  // The realization of a *valid* pattern is a valid sequence (same-symbol
  // intervals in a valid pattern never intersect), so conversion is safe.
  const EndpointDatabase edb =
      EndpointDatabase::FromSequences({&realization, 1}, 0);
  return Contains(edb[0], sub);
}

namespace {

// Assigns run ids: runs[i] identifies the maximal run of consecutive
// coincidences of `p` containing item position i's symbol.
std::vector<uint32_t> ComputeRunIds(const CoincidencePattern& p) {
  std::vector<uint32_t> run(p.num_items(), 0);
  uint32_t next_run = 1;
  for (uint32_t c = 0; c < p.num_coincidences(); ++c) {
    for (uint32_t i = p.coin_begin(c); i < p.coin_end(c); ++i) {
      if (run[i] != 0) continue;
      // Start a new run; follow the symbol through consecutive coincidences.
      const EventId e = p.item(i);
      const uint32_t id = next_run++;
      uint32_t pos = i;
      uint32_t cc = c;
      run[pos] = id;
      while (cc + 1 < p.num_coincidences()) {
        bool found = false;
        for (uint32_t j = p.coin_begin(cc + 1); j < p.coin_end(cc + 1); ++j) {
          if (p.item(j) == e) {
            run[j] = id;
            pos = j;
            found = true;
            break;
          }
        }
        if (!found) break;
        ++cc;
      }
    }
  }
  return run;
}

// Backtracking embedding of sub into super with run containment.
struct SubMatcher {
  const CoincidencePattern& sub;
  const CoincidencePattern& super;
  const std::vector<uint32_t>& super_runs;

  // prev[k] = super item matched for the k-th symbol of sub coincidence j-1.
  bool Match(uint32_t j, uint32_t min_c, const std::vector<uint32_t>& prev) {
    if (j == sub.num_coincidences()) return true;
    for (uint32_t c = min_c; c < super.num_coincidences(); ++c) {
      std::vector<uint32_t> assign;
      if (TryCoin(j, c, prev, &assign) && Match(j + 1, c + 1, assign)) {
        return true;
      }
    }
    return false;
  }

  bool TryCoin(uint32_t j, uint32_t c, const std::vector<uint32_t>& prev,
               std::vector<uint32_t>* assign) {
    for (uint32_t k = sub.coin_begin(j); k < sub.coin_end(j); ++k) {
      const EventId e = sub.item(k);
      uint32_t found = ~0u;
      for (uint32_t i = super.coin_begin(c); i < super.coin_end(c); ++i) {
        if (super.item(i) == e) {
          found = i;
          break;
        }
      }
      if (found == ~0u) return false;
      // Run containment: if the previous sub coincidence also has e, both
      // matched super items must belong to one run of e in super.
      if (j > 0) {
        uint32_t pk = 0;
        for (uint32_t q = sub.coin_begin(j - 1); q < sub.coin_end(j - 1); ++q, ++pk) {
          if (sub.item(q) == e) {
            if (super_runs[prev[pk]] != super_runs[found]) return false;
            break;
          }
        }
      }
      assign->push_back(found);
    }
    return true;
  }
};

}  // namespace

bool IsSubPattern(const CoincidencePattern& sub, const CoincidencePattern& super) {
  if (sub.num_items() > super.num_items()) return false;
  if (sub.empty()) return true;
  const std::vector<uint32_t> runs = ComputeRunIds(super);
  SubMatcher m{sub, super, runs};
  return m.Match(0, 0, {});
}

namespace {

template <typename PatternT>
std::vector<MinedPattern<PatternT>> FilterImpl(
    std::vector<MinedPattern<PatternT>> patterns, bool require_equal_support) {
  // Sort by descending item count so potential super-patterns come first.
  std::vector<size_t> order(patterns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return patterns[a].pattern.num_items() > patterns[b].pattern.num_items();
  });
  std::vector<MinedPattern<PatternT>> kept;
  for (size_t idx : order) {
    const auto& cand = patterns[idx];
    bool dominated = false;
    for (const auto& k : kept) {
      if (k.pattern.num_items() <= cand.pattern.num_items()) continue;
      if (require_equal_support && k.support != cand.support) continue;
      if (IsSubPattern(cand.pattern, k.pattern)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(cand);
  }
  std::sort(kept.begin(), kept.end(),
            [](const MinedPattern<PatternT>& a, const MinedPattern<PatternT>& b) {
              return a.pattern < b.pattern;
            });
  return kept;
}

}  // namespace

template <typename PatternT>
std::vector<MinedPattern<PatternT>> FilterClosed(
    std::vector<MinedPattern<PatternT>> patterns) {
  return FilterImpl(std::move(patterns), /*require_equal_support=*/true);
}

template <typename PatternT>
std::vector<MinedPattern<PatternT>> FilterMaximal(
    std::vector<MinedPattern<PatternT>> patterns) {
  return FilterImpl(std::move(patterns), /*require_equal_support=*/false);
}

template <typename PatternT>
std::vector<MinedPattern<PatternT>> TopKBySupport(
    std::vector<MinedPattern<PatternT>> patterns, size_t k) {
  // A strict total order over distinct patterns, so the partial sort keeps
  // exactly the prefix a full sort would.
  const size_t keep = std::min(k, patterns.size());
  std::partial_sort(
      patterns.begin(), patterns.begin() + keep, patterns.end(),
      [](const MinedPattern<PatternT>& a, const MinedPattern<PatternT>& b) {
        if (a.support != b.support) return a.support > b.support;
        return a.pattern < b.pattern;
      });
  patterns.resize(keep);
  return patterns;
}

std::vector<MinedPattern<EndpointPattern>> FilterMinIntervals(
    std::vector<MinedPattern<EndpointPattern>> patterns, uint32_t min_intervals) {
  std::vector<MinedPattern<EndpointPattern>> out;
  for (auto& mp : patterns) {
    if (mp.pattern.NumIntervals() >= min_intervals) out.push_back(std::move(mp));
  }
  return out;
}

// Explicit instantiations.
template std::vector<MinedPattern<EndpointPattern>> FilterClosed(
    std::vector<MinedPattern<EndpointPattern>>);
template std::vector<MinedPattern<CoincidencePattern>> FilterClosed(
    std::vector<MinedPattern<CoincidencePattern>>);
template std::vector<MinedPattern<EndpointPattern>> FilterMaximal(
    std::vector<MinedPattern<EndpointPattern>>);
template std::vector<MinedPattern<CoincidencePattern>> FilterMaximal(
    std::vector<MinedPattern<CoincidencePattern>>);
template std::vector<MinedPattern<EndpointPattern>> TopKBySupport(
    std::vector<MinedPattern<EndpointPattern>>, size_t);
template std::vector<MinedPattern<CoincidencePattern>> TopKBySupport(
    std::vector<MinedPattern<CoincidencePattern>>, size_t);

}  // namespace tpm
