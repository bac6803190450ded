#include "miner/endpoint_growth.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/endpoint.h"
#include "miner/growth_engine.h"
#include "miner/validate_hooks.h"
#include "util/macros.h"

namespace tpm {

namespace {

// P-TPMiner/E extension policy for GrowthEngine (see growth_engine.h for the
// contract). An occurrence state is {last matched item, anchor slice} plus a
// `req` aux slice: req[k] is the data item index of the finish endpoint that
// must close the k-th open symbol of the pattern. Open symbols are a
// property of the pattern, so the slice layout is identical across states of
// a node — exactly the fixed-stride shape the projection layer stores flat.
class EndpointPolicy {
 public:
  using PatternT = EndpointPattern;
  using ResultT = EndpointMiningResult;

  static constexpr const char* kBuildSpanName = "endpoint.build";
  static constexpr const char* kGrowSpanName = "endpoint.grow";
  static constexpr const char* kRootScanSpanName = "endpoint.root_scan";
  static constexpr const char* kRootRangeSpanName = "endpoint.root_scan.range";
  static constexpr const char* kFaultMessage =
      "injected allocation failure building the endpoint representation "
      "(fault site miner.alloc)";

  EndpointPolicy(const MinerOptions& options, const GrowthConfig& config)
      : options_(options),
        validity_pruning_(!config.baseline && options.validity_pruning) {}

  size_t Build(const IntervalDatabase& db, uint32_t threads) {
    TPM_TRACE_SPAN("endpoint.repr");
    // Shared immutable representation: worker policies are copies of the
    // built prototype, and sharing the database keeps those copies cheap.
    edb_ = std::make_shared<const EndpointDatabase>(
        EndpointDatabase::FromDatabase(db, threads));
    internal::DCheckRepresentation(*edb_);
    return edb_->MemoryBytes();
  }

  uint32_t NumSeqs() const { return static_cast<uint32_t>(edb_->size()); }
  uint32_t NumItems(uint32_t seq) const { return (*edb_)[seq].num_items(); }
  uint32_t ItemCode(uint32_t seq, uint32_t p) const {
    return (*edb_)[seq].item(p);
  }

  // Finish endpoints never introduce a symbol: their start already did, so
  // admission pruning does not apply to them. A start is Scannable when its
  // symbol is allowed; a finish only when validity pruning is off (with it
  // on, closes come straight from the obligations instead).
  static bool IntroducesSymbol(uint32_t code) { return !IsFinish(code); }
  static EventId SymbolOf(uint32_t code) { return EndpointEvent(code); }
  bool Scannable(uint32_t code, const uint8_t* allowed) const {
    if (IsFinish(code)) return !validity_pruning_;
    return allowed == nullptr || allowed[EndpointEvent(code)] != 0;
  }

  size_t PatternLen() const { return pat_items_.size(); }
  size_t NumBlocks() const { return pat_offsets_.size(); }

  // Only complete patterns (every opened symbol closed) are reported.
  bool CanEmit() const { return !pat_items_.empty() && open_events_.empty(); }

  PatternT MakePattern() const {
    std::vector<uint32_t> offsets = pat_offsets_;
    offsets.push_back(static_cast<uint32_t>(pat_items_.size()));
    return EndpointPattern(pat_items_, offsets);
  }

  uint32_t Stride() const {
    return static_cast<uint32_t>(open_events_.size());
  }
  uint32_t ChildStride(uint32_t code, bool /*i_ext*/) const {
    return IsFinish(code) ? Stride() - 1 : Stride() + 1;
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

  void BeginNode() { node_validity_closes_ = 0; }
  void FlushNodeMetrics(SearchTally* tally) const {
    tally->validity_hits += node_validity_closes_;
  }

  template <typename Sink>
  void ScanState(bool allow_s_ext, uint32_t seq, const StateRec& st,
                 const uint32_t* req, std::span<const ScanItem> items,
                 Sink&& try_push) {
    const EndpointSequence& es = (*edb_)[seq];
    const uint32_t st_slice =
        st.item == kNoStateItem ? kNoStateItem : es.item_slice(st.item);
    const uint32_t last_code = pat_items_.empty() ? 0 : pat_items_.back();
    const uint32_t stride = Stride();

    // --- Finish-endpoint candidates straight from obligations. ---
    if (validity_pruning_) {
      for (uint32_t k = 0; k < stride; ++k) {
        const uint32_t q = req[k];
        const uint32_t q_slice = es.item_slice(q);
        const EndpointCode fcode = MakeFinish(open_events_[k]);
        if (q_slice == st_slice && q > st.item && fcode > last_code) {
          // i-extension close within the last slice.
          if (uint32_t* aux = try_push(fcode, /*i_ext=*/true, q, st.anchor)) {
            FillClose(aux, req, stride, k);
            ++node_validity_closes_;
          }
        } else if (allow_s_ext && st_slice != kNoStateItem &&
                   q_slice > st_slice && !ViolatesWindow(es, st, q_slice)) {
          if (uint32_t* aux = try_push(fcode, /*i_ext=*/false, q, st.anchor)) {
            FillClose(aux, req, stride, k);
            ++node_validity_closes_;
          }
        }
      }
    }

    const ScanItem* const items_end = items.data() + items.size();
    const ScanItem* it = items.data();

    // --- I-extensions: same slice, larger code. ---
    if (st.item != kNoStateItem) {
      const uint32_t end = es.slice_end(st_slice);
      for (it = FirstItemAtOrAfter(items, st.item + 1);
           it != items_end && it->pos < end; ++it) {
        const uint32_t p = it->pos;
        const EndpointCode c = it->code;
        const EventId ev = EndpointEvent(c);
        if (!IsFinish(c)) {
          if (c <= last_code || InOpen(ev)) continue;
          if (uint32_t* aux =
                  try_push(c, /*i_ext=*/true, p, OpenAnchor(es, st, p))) {
            FillOpen(aux, req, stride, es.partner(p));
          }
        } else {
          // Finishes are listed only with validity pruning off: a
          // scan-based close accepts only the obligated position.
          const int32_t k = OpenIndex(ev);
          if (k >= 0 && req[k] == p && c > last_code) {
            if (uint32_t* aux = try_push(c, /*i_ext=*/true, p, st.anchor)) {
              FillClose(aux, req, stride, static_cast<uint32_t>(k));
            }
          }
        }
        // Same-slice matches share the anchor slice's time, so the window
        // can never be violated by an i-extension.
      }
    }

    // --- S-extensions: any later slice. `it` is the first item past the
    // state's slice (the list's first for a virgin state). ---
    if (allow_s_ext) {
      for (; it != items_end; ++it) {
        const uint32_t p = it->pos;
        const EndpointCode c = it->code;
        const EventId ev = EndpointEvent(c);
        if (ViolatesWindow(es, st, es.item_slice(p))) break;  // monotone
        if (!IsFinish(c)) {
          if (InOpen(ev)) continue;
          if (uint32_t* aux =
                  try_push(c, /*i_ext=*/false, p, OpenAnchor(es, st, p))) {
            FillOpen(aux, req, stride, es.partner(p));
          }
        } else {
          const int32_t k = OpenIndex(ev);
          if (k >= 0 && req[k] == p) {
            if (uint32_t* aux = try_push(c, /*i_ext=*/false, p, st.anchor)) {
              FillClose(aux, req, stride, static_cast<uint32_t>(k));
            }
          }
        }
      }
    }
  }

  // Sort + dedup within one sequence: states compare by (item, anchor, req
  // lexicographic), duplicates collapse to one.
  void SelectSpan(const ProjectionBuilder::SpanView& v,
                  std::vector<uint32_t>* keep) {
    const uint32_t n = v.count;
    const uint32_t stride = v.stride;
    order_.resize(n);
    for (uint32_t i = 0; i < n; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      const StateRec& ra = v.recs[a];
      const StateRec& rb = v.recs[b];
      if (ra.item != rb.item) return ra.item < rb.item;
      if (ra.anchor != rb.anchor) return ra.anchor < rb.anchor;
      const uint32_t* aa = v.aux + static_cast<size_t>(a) * stride;
      const uint32_t* ab = v.aux + static_cast<size_t>(b) * stride;
      return std::lexicographical_compare(aa, aa + stride, ab, ab + stride);
    });
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && EqualStates(v, order_[i], order_[i - 1])) continue;
      keep->push_back(order_[i]);
    }
  }

  // Appends `code` to the pattern as an i- or s-extension and updates the
  // open list / pattern symbol set.
  void Apply(uint32_t code, bool i_ext) {
    if (!i_ext) {
      pat_offsets_.push_back(static_cast<uint32_t>(pat_items_.size()));
    }
    pat_items_.push_back(code);
    const EventId ev = EndpointEvent(code);
    if (!IsFinish(code)) {
      open_events_.push_back(ev);
      symbol_added_.push_back(!InPattern(ev));
      if (symbol_added_.back()) pattern_symbols_.push_back(ev);
    } else {
      const int32_t k = OpenIndex(ev);
      TPM_CHECK(k >= 0);
      closed_stack_.push_back({static_cast<uint32_t>(k), ev});
      open_events_.erase(open_events_.begin() + k);
      symbol_added_.push_back(false);
    }
  }

  void Undo(uint32_t code, bool i_ext) {
    pat_items_.pop_back();
    if (!i_ext) pat_offsets_.pop_back();
    if (!IsFinish(code)) {
      open_events_.pop_back();
      if (symbol_added_.back()) pattern_symbols_.pop_back();
    } else {
      const auto [k, closed_ev] = closed_stack_.back();
      closed_stack_.pop_back();
      open_events_.insert(open_events_.begin() + k, closed_ev);
    }
    symbol_added_.pop_back();
  }

 private:
  static void FillOpen(uint32_t* aux, const uint32_t* req, uint32_t stride,
                       uint32_t partner) {
    if (stride != 0) std::memcpy(aux, req, stride * sizeof(uint32_t));
    aux[stride] = partner;
  }

  // Child aux = req minus obligation k (child stride is stride - 1).
  static void FillClose(uint32_t* aux, const uint32_t* req, uint32_t stride,
                        uint32_t k) {
    if (k != 0) std::memcpy(aux, req, k * sizeof(uint32_t));
    if (k + 1 != stride) {
      std::memcpy(aux + k, req + k + 1, (stride - k - 1) * sizeof(uint32_t));
    }
  }

  // Anchors only matter (and only enter state identity) under a window
  // constraint; leaving them unset otherwise lets more states dedup.
  uint32_t OpenAnchor(const EndpointSequence& es, const StateRec& st,
                      uint32_t p) const {
    if (options_.max_window <= 0) return kNoStateItem;
    return st.anchor == kNoStateItem ? es.item_slice(p) : st.anchor;
  }

  // True when matching an item in slice `slice` from `st` would overflow
  // the time-window constraint.
  bool ViolatesWindow(const EndpointSequence& es, const StateRec& st,
                      uint32_t slice) const {
    if (options_.max_window <= 0 || st.anchor == kNoStateItem) return false;
    return es.slice_time(slice) - es.slice_time(st.anchor) >
           options_.max_window;
  }

  bool InOpen(EventId ev) const {
    for (EventId e : open_events_) {
      if (e == ev) return true;
    }
    return false;
  }

  int32_t OpenIndex(EventId ev) const {
    for (size_t i = 0; i < open_events_.size(); ++i) {
      if (open_events_[i] == ev) return static_cast<int32_t>(i);
    }
    return -1;
  }

  bool EqualStates(const ProjectionBuilder::SpanView& v, uint32_t a,
                   uint32_t b) const {
    if (!(v.recs[a] == v.recs[b])) return false;
    const uint32_t* aa = v.aux + static_cast<size_t>(a) * v.stride;
    const uint32_t* ab = v.aux + static_cast<size_t>(b) * v.stride;
    return std::equal(aa, aa + v.stride, ab);
  }

  const MinerOptions& options_;
  const bool validity_pruning_;

  std::shared_ptr<const EndpointDatabase> edb_;

  // DFS pattern stack.
  std::vector<EndpointCode> pat_items_;
  std::vector<uint32_t> pat_offsets_;  // begin index of each slice
  std::vector<EventId> open_events_;   // open symbols, in opening order
  std::vector<EventId> pattern_symbols_;
  std::vector<uint8_t> symbol_added_;  // per pattern item: added new symbol?
  std::vector<std::pair<uint32_t, EventId>> closed_stack_;

  std::vector<uint32_t> order_;  // SelectSpan scratch
  uint64_t node_validity_closes_ = 0;
};

}  // namespace

Result<EndpointMiningResult> MineEndpointGrowth(const IntervalDatabase& db,
                                                const MinerOptions& options,
                                                const GrowthConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate(options.threads));
  internal::DCheckMinerEntry(db);
  // Negated comparison so NaN is rejected too: NaN <= 0.0 is false, and a
  // NaN threshold would otherwise disable the support filter entirely.
  if (!(options.min_support > 0.0)) {
    return Status::InvalidArgument("min_support must be positive");
  }
  GrowthEngine<EndpointPolicy> engine(db, options, config);
  Result<EndpointMiningResult> result = engine.Run();
  if (result.ok()) internal::DCheckMinerExit(*result);
  return result;
}

}  // namespace tpm
