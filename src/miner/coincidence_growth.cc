#include "miner/coincidence_growth.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/coincidence.h"
#include "miner/growth_engine.h"
#include "miner/validate_hooks.h"
#include "util/macros.h"

namespace tpm {

namespace {

// P-TPMiner/C extension policy for GrowthEngine (see growth_engine.h for the
// contract). An occurrence state is {last matched item, anchor segment} plus
// a bounds aux slice:
//
//   bounds[0..L)   for each symbol of the pattern's LAST coincidence: the
//                  last segment on which the matched interval is alive
//   bounds[L..L+P) the same for the PREVIOUS coincidence
//
// Interval identity is equivalent to segment containment in the alive range
// (same-symbol intervals never touch), so these bounds carry exactly the
// information run-continuity checks need — and unlike raw item positions
// they expose a clean dominance order (larger bound = strictly more
// permissive), which keeps the state set small (pareto fronts instead of
// full occurrence enumerations).
class CoincidencePolicy {
 public:
  using PatternT = CoincidencePattern;
  using ResultT = CoincidenceMiningResult;

  static constexpr const char* kBuildSpanName = "coincidence.build";
  static constexpr const char* kGrowSpanName = "coincidence.grow";
  static constexpr const char* kFaultMessage =
      "injected allocation failure building the coincidence "
      "representation (fault site miner.alloc)";

  CoincidencePolicy(const MinerOptions& options, const GrowthConfig& /*config*/)
      : options_(options) {}

  size_t Build(const IntervalDatabase& db) {
    // Shared immutable representation: worker policies are copies of the
    // built prototype, and sharing the database keeps those copies cheap.
    cdb_ = std::make_shared<const CoincidenceDatabase>(
        CoincidenceDatabase::FromDatabase(db));
    return cdb_->MemoryBytes();
  }

  uint32_t NumSeqs() const { return static_cast<uint32_t>(cdb_->size()); }
  uint32_t NumItems(uint32_t seq) const { return (*cdb_)[seq].num_items(); }
  uint32_t ItemCode(uint32_t seq, uint32_t p) const {
    return (*cdb_)[seq].item(p);
  }

  // Every coincidence item is a symbol occurrence, so admission pruning
  // applies to all candidates and only items of allowed symbols are
  // Scannable.
  static bool IntroducesSymbol(uint32_t /*code*/) { return true; }
  static EventId SymbolOf(uint32_t code) { return code; }
  static bool Scannable(uint32_t code, const uint8_t* allowed) {
    return allowed == nullptr || allowed[code] != 0;
  }

  size_t PatternLen() const { return pat_items_.size(); }
  size_t NumBlocks() const { return pat_offsets_.size(); }

  // Coincidence patterns are complete by construction.
  bool CanEmit() const { return !pat_items_.empty(); }

  PatternT MakePattern() const {
    std::vector<uint32_t> offsets = pat_offsets_;
    offsets.push_back(static_cast<uint32_t>(pat_items_.size()));
    return CoincidencePattern(pat_items_, offsets);
  }

  uint32_t Stride() const {
    return static_cast<uint32_t>(last_syms_.size() + prev_syms_.size());
  }
  // Child stride: i-ext has L+1 last bounds + P prev bounds; s-ext has
  // 1 last bound + L prev bounds.
  uint32_t ChildStride(uint32_t /*code*/, bool i_ext) const {
    return i_ext ? Stride() + 1
                 : 1 + static_cast<uint32_t>(last_syms_.size());
  }

  bool InPattern(EventId ev) const {
    for (EventId e : pattern_symbols_) {
      if (e == ev) return true;
    }
    return false;
  }
  const std::vector<EventId>& PatternSymbols() const {
    return pattern_symbols_;
  }

  void BeginNode() const {}
  void FlushNodeMetrics(SearchTally* /*tally*/) const {}

  template <typename Sink>
  void ScanState(bool allow_s_ext, uint32_t seq, const StateRec& st,
                 const uint32_t* bnd, std::span<const ScanItem> items,
                 Sink&& try_push) {
    const CoincidenceSequence& cs = (*cdb_)[seq];
    const EventId last_symbol = pat_items_.empty() ? 0 : pat_items_.back();
    const uint32_t num_last = static_cast<uint32_t>(last_syms_.size());
    const uint32_t stride = Stride();
    const ScanItem* const items_end = items.data() + items.size();
    const ScanItem* it = items.data();

    // I-extensions: same segment, strictly larger symbol.
    if (st.item != kNoStateItem) {
      const uint32_t st_seg = cs.item_segment(st.item);
      const uint32_t end = cs.seg_end(st_seg);
      for (it = FirstItemAtOrAfter(items, st.item + 1);
           it != items_end && it->pos < end; ++it) {
        const uint32_t p = it->pos;
        const EventId y = it->code;
        if (y <= last_symbol) continue;
        const int32_t k = IndexOf(prev_syms_, y);
        if (k >= 0 && st_seg > bnd[num_last + k]) continue;  // run broken
        if (uint32_t* aux = try_push(y, /*i_ext=*/true, p, st.anchor)) {
          // Child layout: last' = last + [y], prev' = prev.
          if (num_last != 0) {
            std::memcpy(aux, bnd, num_last * sizeof(uint32_t));
          }
          aux[num_last] = cs.alive_until(p);
          if (stride != num_last) {
            std::memcpy(aux + num_last + 1, bnd + num_last,
                        (stride - num_last) * sizeof(uint32_t));
          }
        }
      }
    }

    // S-extensions: any later segment. `it` is the first item past the
    // state's segment (the list's first for a virgin state).
    if (allow_s_ext) {
      for (; it != items_end; ++it) {
        const uint32_t p = it->pos;
        const EventId y = it->code;
        const uint32_t p_seg = cs.item_segment(p);
        if (options_.max_window > 0 && st.anchor != kNoStateItem &&
            cs.seg_end_time(p_seg) - cs.seg_start_time(st.anchor) >
                options_.max_window) {
          break;  // segment end times only grow
        }
        const int32_t k = IndexOf(last_syms_, y);
        if (k >= 0 && p_seg > bnd[k]) continue;  // run broken
        const uint32_t anchor =
            options_.max_window > 0
                ? (st.anchor == kNoStateItem ? p_seg : st.anchor)
                : 0;
        if (uint32_t* aux = try_push(y, /*i_ext=*/false, p, anchor)) {
          // Child layout: last' = [y], prev' = last.
          aux[0] = cs.alive_until(p);
          if (num_last != 0) {
            std::memcpy(aux + 1, bnd, num_last * sizeof(uint32_t));
          }
        }
      }
    }
  }

  // Removes duplicate and dominated states. State s1 dominates s2 when its
  // bounds are pointwise >= and either (a) both items sit in the same
  // segment with item1 <= item2 (every i- and s-extension of s2 is then
  // available to s1), or (b) item1 <= item2 and s2 has no i-extension
  // future at all (its item is the last of its segment), so only
  // s-extensions matter and those only compare segments.
  void SelectSpan(const ProjectionBuilder::SpanView& v,
                  std::vector<uint32_t>* keep) {
    const uint32_t n = v.count;
    if (n <= 1) {
      for (uint32_t i = 0; i < n; ++i) keep->push_back(i);
      return;
    }
    const CoincidenceSequence& cs = (*cdb_)[v.seq];
    const uint32_t stride = v.stride;

    // Order by item; dominance never looks backwards that way.
    order_.resize(n);
    for (uint32_t i = 0; i < n; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      return v.recs[a].item < v.recs[b].item;
    });

    kept_.clear();
    kept_.reserve(n);
    // Quadratic pareto filter with a safety cap: beyond the cap only exact
    // duplicates are removed (soundness is unaffected, only speed).
    const size_t kPairwiseCap = 768;
    for (uint32_t oi = 0; oi < n; ++oi) {
      const uint32_t idx = order_[oi];
      const uint32_t item = v.recs[idx].item;
      const uint32_t* bnd = v.aux + static_cast<size_t>(idx) * stride;
      const uint32_t seg = cs.item_segment(item);
      const bool s_ext_only = item + 1 >= cs.seg_end(seg);
      bool dominated = false;
      for (uint32_t kidx : kept_) {
        const uint32_t kitem = v.recs[kidx].item;
        if (kitem > item) break;  // kept is item-sorted; no dominator beyond
        // A later (or equal) anchor is strictly more permissive under the
        // window constraint; without a window all anchors are zero and the
        // check is vacuous.
        if (v.recs[kidx].anchor < v.recs[idx].anchor) continue;
        const uint32_t* kbnd = v.aux + static_cast<size_t>(kidx) * stride;
        const bool same_seg = cs.item_segment(kitem) == seg;
        if (!same_seg && !s_ext_only) continue;
        bool ge = true;
        for (uint32_t j = 0; j < stride; ++j) {
          if (kbnd[j] < bnd[j]) {
            ge = false;
            break;
          }
        }
        if (ge) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        kept_.push_back(idx);
        if (kept_.size() > kPairwiseCap) {
          // Give up on pareto filtering for pathological cases; keep rest.
          for (uint32_t rest = oi + 1; rest < n; ++rest) {
            kept_.push_back(order_[rest]);
          }
          break;
        }
      }
    }

    if (kept_.size() == n) {
      // Nothing dropped: preserve the original (push) state order.
      for (uint32_t i = 0; i < n; ++i) keep->push_back(i);
    } else {
      keep->insert(keep->end(), kept_.begin(), kept_.end());
    }
  }

  void Apply(uint32_t symbol, bool i_ext) {
    if (!i_ext) {
      pat_offsets_.push_back(static_cast<uint32_t>(pat_items_.size()));
      prev_syms_saved_.push_back(prev_syms_);
      prev_syms_ = last_syms_;
      last_syms_.clear();
    }
    pat_items_.push_back(symbol);
    last_syms_.push_back(symbol);
    symbol_added_.push_back(!InPattern(symbol));
    if (symbol_added_.back()) pattern_symbols_.push_back(symbol);
  }

  void Undo(uint32_t /*symbol*/, bool i_ext) {
    pat_items_.pop_back();
    last_syms_.pop_back();
    if (symbol_added_.back()) pattern_symbols_.pop_back();
    symbol_added_.pop_back();
    if (!i_ext) {
      pat_offsets_.pop_back();
      last_syms_ = prev_syms_;
      prev_syms_ = prev_syms_saved_.back();
      prev_syms_saved_.pop_back();
    }
  }

 private:
  static int32_t IndexOf(const std::vector<EventId>& v, EventId y) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] == y) return static_cast<int32_t>(i);
      if (v[i] > y) return -1;
    }
    return -1;
  }

  const MinerOptions& options_;

  std::shared_ptr<const CoincidenceDatabase> cdb_;

  std::vector<EventId> pat_items_;
  std::vector<uint32_t> pat_offsets_;
  std::vector<EventId> last_syms_;
  std::vector<EventId> prev_syms_;
  std::vector<std::vector<EventId>> prev_syms_saved_;
  std::vector<EventId> pattern_symbols_;
  std::vector<uint8_t> symbol_added_;

  std::vector<uint32_t> order_;  // SelectSpan scratch
  std::vector<uint32_t> kept_;
};

}  // namespace

Result<CoincidenceMiningResult> MineCoincidenceGrowth(
    const IntervalDatabase& db, const MinerOptions& options,
    const GrowthConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate());
  internal::DCheckCoincidenceMinerEntry(db);
  // Negated comparison so NaN is rejected too: NaN <= 0.0 is false, and a
  // NaN threshold would otherwise disable the support filter entirely.
  if (!(options.min_support > 0.0)) {
    return Status::InvalidArgument("min_support must be positive");
  }
  GrowthEngine<CoincidencePolicy> engine(db, options, config);
  Result<CoincidenceMiningResult> result = engine.Run();
  if (result.ok()) internal::DCheckMinerExit(*result);
  return result;
}

}  // namespace tpm
