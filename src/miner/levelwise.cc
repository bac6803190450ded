#include "miner/levelwise.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/coincidence.h"
#include "core/containment.h"
#include "core/endpoint.h"
#include "miner/cooccurrence.h"
#include "miner/miner_metrics.h"
#include "miner/validate_hooks.h"
#include "obs/metrics.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/memory.h"
#include "util/timer.h"

namespace tpm {

namespace {

// Rebuilds (items, offsets) with the given sorted item positions removed and
// empty slices collapsed. Works for both pattern item types.
template <typename ItemT>
void RemovePositions(const std::vector<ItemT>& items,
                     const std::vector<uint32_t>& offsets,
                     const std::vector<uint32_t>& remove,
                     std::vector<ItemT>* out_items,
                     std::vector<uint32_t>* out_offsets) {
  out_items->clear();
  out_offsets->clear();
  size_t r = 0;
  const uint32_t num_slices = static_cast<uint32_t>(offsets.size()) - 1;
  for (uint32_t s = 0; s < num_slices; ++s) {
    const size_t slice_start = out_items->size();
    for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      if (r < remove.size() && remove[r] == i) {
        ++r;
        continue;
      }
      out_items->push_back(items[i]);
    }
    if (out_items->size() > slice_start) {
      out_offsets->push_back(static_cast<uint32_t>(slice_start));
    }
  }
  out_offsets->push_back(static_cast<uint32_t>(out_items->size()));
}

// One frontier candidate: a (possibly incomplete) pattern under growth.
template <typename ItemT, typename PatternT>
struct FrontierPat {
  using Item = ItemT;

  std::vector<ItemT> items;
  std::vector<uint32_t> offsets;  // slice begins, WITHOUT the final sentinel
  std::vector<EventId> open;      // endpoint language: symbols opened but not
                                  // closed, any order; coincidence: empty

  PatternT ToPattern() const {
    std::vector<uint32_t> full = offsets;
    full.push_back(static_cast<uint32_t>(items.size()));
    return PatternT(items, full);
  }
  size_t Bytes() const {
    return items.capacity() * sizeof(ItemT) +
           offsets.capacity() * sizeof(uint32_t) +
           open.capacity() * sizeof(EventId);
  }
};

// ---------------------------------------------------------------------------
// Language policies: everything the level-wise search needs to know about a
// pattern language. LevelwiseMiner<Lang> owns the rest.
// ---------------------------------------------------------------------------

struct EndpointLang {
  using Pattern = EndpointPattern;
  using PatternHash = EndpointPatternHash;
  using Frontier = FrontierPat<EndpointCode, EndpointPattern>;
  using Database = EndpointDatabase;
  using MiningResult = EndpointMiningResult;

  static constexpr const char* kDomainName = "levelwise.endpoint";
  static constexpr const char* kFaultMessage =
      "injected allocation failure building the level-wise endpoint "
      "representation (fault site miner.alloc)";

  // Level 1: single start endpoints. Finish endpoints are derived from each
  // pattern's open list.
  static Frontier Seed(EventId e) { return Frontier{{MakeStart(e)}, {0}, {e}}; }

  // Only complete patterns (every opened interval closed) are reported.
  static bool CanEmit(const Frontier& f) { return f.open.empty(); }

  // Calls admit(candidate) for every valid one-item extension of `f`: the
  // start of a symbol not open in `f`, or the finish of one that is.
  template <typename AdmitFn>
  static void Extend(const Frontier& f, const std::vector<EventId>& alphabet,
                     bool allow_s, AdmitFn&& admit) {
    const EndpointCode last = f.items.back();
    auto try_candidate = [&](EndpointCode code, bool i_ext) {
      Frontier c = f;
      if (!i_ext) c.offsets.push_back(static_cast<uint32_t>(c.items.size()));
      c.items.push_back(code);
      const EventId ev = EndpointEvent(code);
      if (!IsFinish(code)) {
        c.open.push_back(ev);
      } else {
        c.open.erase(std::find(c.open.begin(), c.open.end(), ev));
      }
      if (!c.ToPattern().Validate().ok()) return;
      admit(std::move(c));
    };
    for (EventId e : alphabet) {
      const bool is_open =
          std::find(f.open.begin(), f.open.end(), e) != f.open.end();
      const EndpointCode code = is_open ? MakeFinish(e) : MakeStart(e);
      if (allow_s) try_candidate(code, /*i_ext=*/false);
      if (code > last) try_candidate(code, /*i_ext=*/true);
    }
  }

  // Interval removal: deleting a closed interval (both endpoints) or a
  // dangling open start (monotone containment, see DESIGN.md §2.2).
  static void RemovalSets(const Frontier& c,
                          std::vector<std::vector<uint32_t>>* removals) {
    // Pair up endpoints positionally.
    std::vector<std::pair<EventId, uint32_t>> open_stack;
    for (uint32_t i = 0; i < c.items.size(); ++i) {
      const EndpointCode code = c.items[i];
      const EventId ev = EndpointEvent(code);
      if (!IsFinish(code)) {
        open_stack.emplace_back(ev, i);
        continue;
      }
      for (size_t k = open_stack.size(); k-- > 0;) {
        if (open_stack[k].first == ev) {
          removals->push_back({open_stack[k].second, i});
          open_stack.erase(open_stack.begin() + static_cast<ptrdiff_t>(k));
          break;
        }
      }
    }
    for (const auto& [ev, pos] : open_stack) removals->push_back({pos});
  }
};

struct CoincidenceLang {
  using Pattern = CoincidencePattern;
  using PatternHash = CoincidencePatternHash;
  using Frontier = FrontierPat<EventId, CoincidencePattern>;
  using Database = CoincidenceDatabase;
  using MiningResult = CoincidenceMiningResult;

  static constexpr const char* kDomainName = "levelwise.coincidence";
  static constexpr const char* kFaultMessage =
      "injected allocation failure building the level-wise coincidence "
      "representation (fault site miner.alloc)";

  static Frontier Seed(EventId e) { return Frontier{{e}, {0}, {}}; }

  static bool CanEmit(const Frontier&) { return true; }

  // A new coincidence holding `e`, or `e` added to the last coincidence when
  // it sorts after every symbol already there.
  template <typename AdmitFn>
  static void Extend(const Frontier& f, const std::vector<EventId>& alphabet,
                     bool allow_s, AdmitFn&& admit) {
    for (EventId e : alphabet) {
      if (allow_s) {
        Frontier c = f;
        c.offsets.push_back(static_cast<uint32_t>(c.items.size()));
        c.items.push_back(e);
        admit(std::move(c));
      }
      if (e > f.items.back()) {
        Frontier c = f;
        c.items.push_back(e);
        admit(std::move(c));
      }
    }
  }

  // Single-item removal (monotone for coincidence patterns).
  static void RemovalSets(const Frontier& c,
                          std::vector<std::vector<uint32_t>>* removals) {
    for (uint32_t i = 0; i < c.items.size(); ++i) removals->push_back({i});
  }
};

// Breadth-first generate-and-test: level k holds the frequent candidates
// with k items; level k+1 candidates are their one-item extensions, each
// counted by a full-database containment scan.
template <typename Lang>
class LevelwiseMiner {
 public:
  using Frontier = typename Lang::Frontier;
  using Pattern = typename Lang::Pattern;
  using MiningResult = typename Lang::MiningResult;

  LevelwiseMiner(const IntervalDatabase& db, const MinerOptions& options,
                 const LevelwiseConfig& config)
      : db_(db),
        options_(options),
        config_(config),
        minsup_(db.AbsoluteSupport(options.min_support)),
        owned_domain_(options.stats_domain != nullptr
                          ? nullptr
                          : new obs::StatsDomain(Lang::kDomainName)),
        domain_(options.stats_domain != nullptr ? options.stats_domain
                                                : owned_domain_.get()) {}

  Result<MiningResult> Run() {
    MiningResult result;
    out_ = &result;
    if (MinerFaultPoint("miner.alloc", &domain_->registry())) {
      domain_->RecordEvent("fault");
      return Status::ResourceExhausted(Lang::kFaultMessage);
    }
    const obs::MetricsSnapshot obs_start = domain_->registry().Snapshot();
    domain_->RecordEvent("run.begin", db_.size(), minsup_);
    WallTimer build_timer;
    {
      TPM_TRACE_SPAN("levelwise.build");
      ldb_ = Lang::Database::FromDatabase(db_);
    }
    tracker_.Allocate(ldb_.MemoryBytes());
    result.stats.build_seconds = build_timer.ElapsedSeconds();

    WallTimer mine_timer;
    CooccurrenceTable cooc = CooccurrenceTable::Build(db_, minsup_);
    std::vector<EventId> alphabet;
    for (EventId e = 0; e < db_.dict().size(); ++e) {
      const SupportCount s = cooc.SymbolSupport(e);
      if (s == 0) continue;
      if (!config_.frequent_alphabet || s >= minsup_) alphabet.push_back(e);
    }

    std::vector<Frontier> frontier;
    for (EventId e : alphabet) frontier.push_back(Lang::Seed(e));
    while (!frontier.empty() && !guard_.stopped()) {
      frontier = ProcessLevel(std::move(frontier), alphabet);
    }
    result.stats.mine_seconds = mine_timer.ElapsedSeconds();
    result.stats.patterns_found = result.patterns.size();
    result.stats.truncated = guard_.stopped();
    result.stats.stop_reason = guard_.reason();
    RecordStopMetrics(guard_.reason(), &domain_->registry());
    tally_.ChargeTo(&domain_->registry(), /*top_k=*/false);
    result.stats.peak_tracked_bytes = tracker_.peak_bytes();
    result.stats.peak_rss_bytes = ReadPeakRssBytes();
    if (result.stats.peak_rss_bytes > 0) {
      domain_->GetGauge("process.peak_rss_bytes")
          ->Set(static_cast<int64_t>(result.stats.peak_rss_bytes));
    }
    domain_->RecordEvent("run.end", result.patterns.size(),
                         result.stats.nodes_expanded);
    result.stats.metrics = domain_->registry().Snapshot().Since(obs_start);
    obs::MetricsRegistry::Global().MergeSnapshot(result.stats.metrics);
    return result;
  }

 private:
  // Counts every candidate in `level` by a database scan, records frequent
  // ones, and returns the next level's candidates.
  std::vector<Frontier> ProcessLevel(std::vector<Frontier> level,
                                     const std::vector<EventId>& alphabet) {
    TPM_TRACE_SPAN("levelwise.level");
    domain_->RecordEvent("level", level.size(), out_->patterns.size());
    std::vector<Frontier> survivors;
    size_t level_bytes = 0;
    for (Frontier& cand : level) {
      if (guard_.ShouldStop()) break;
      ++out_->stats.candidates_checked;
      ++tally_.candidates;
      const Pattern pattern = cand.ToPattern();
      const SupportCount support = CountSupport(ldb_, pattern, options_.max_window);
      if (support < minsup_) continue;
      ++out_->stats.nodes_expanded;
      tally_.nodes.Observe(cand.items.size());
      frequent_.insert(pattern);
      if (Lang::CanEmit(cand)) {
        out_->patterns.push_back(MinedPattern<Pattern>{pattern, support});
        ++tally_.patterns;
        guard_.NotePattern(out_->patterns.size());
      }
      level_bytes += cand.Bytes();
      survivors.push_back(std::move(cand));
    }
    tracker_.Allocate(level_bytes);

    std::vector<Frontier> next;
    auto admit = [&](Frontier c) {
      if (config_.apriori_check && !PassesApriori(c)) {
        ++tally_.apriori_hits;
        return;
      }
      next.push_back(std::move(c));
    };
    for (const Frontier& f : survivors) {
      if (guard_.stopped()) break;
      if (options_.max_items > 0 && f.items.size() >= options_.max_items) {
        continue;
      }
      const bool allow_s =
          options_.max_length == 0 || f.offsets.size() < options_.max_length;
      Lang::Extend(f, alphabet, allow_s, admit);
    }
    tracker_.Release(level_bytes);
    return next;
  }

  // Apriori check: every non-empty subpattern reached by one of the
  // language's removal sets must itself have been counted frequent.
  bool PassesApriori(const Frontier& c) {
    std::vector<uint32_t> offsets_full = c.offsets;
    offsets_full.push_back(static_cast<uint32_t>(c.items.size()));
    removals_.clear();
    Lang::RemovalSets(c, &removals_);
    for (const std::vector<uint32_t>& rm : removals_) {
      RemovePositions(c.items, offsets_full, rm, &sub_items_, &sub_offsets_);
      if (sub_items_.empty()) continue;
      if (frequent_.find(Pattern(sub_items_, sub_offsets_)) ==
          frequent_.end()) {
        return false;
      }
    }
    return true;
  }

  GuardLimits MakeGuardLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    limits.on_stop = [this](StopReason reason) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(reason),
                           out_ != nullptr ? out_->stats.nodes_expanded : 0);
    };
    return limits;
  }

  const IntervalDatabase& db_;
  const MinerOptions& options_;
  const LevelwiseConfig& config_;
  const SupportCount minsup_;
  typename Lang::Database ldb_;
  std::unordered_set<Pattern, typename Lang::PatternHash> frequent_;
  // PassesApriori scratch, reused across candidates.
  std::vector<std::vector<uint32_t>> removals_;
  std::vector<typename Frontier::Item> sub_items_;
  std::vector<uint32_t> sub_offsets_;
  // Declared before guard_ so the on_stop hook may fire at any point in the
  // guard's lifetime.
  std::unique_ptr<obs::StatsDomain> owned_domain_;
  obs::StatsDomain* domain_ = nullptr;
  SearchTally tally_;  // charged to domain_ once, at run end
  MemoryTracker tracker_;
  ExecutionGuard guard_{MakeGuardLimits(), &tracker_};
  MiningResult* out_ = nullptr;
};

template <typename Lang>
Result<typename Lang::MiningResult> MineLevelwise(
    const IntervalDatabase& db, const MinerOptions& options,
    const LevelwiseConfig& config) {
  // Negated comparison so NaN is rejected too: NaN <= 0.0 is false, and a
  // NaN threshold would otherwise disable the support filter entirely.
  if (!(options.min_support > 0.0)) {
    return Status::InvalidArgument("min_support must be positive");
  }
  if (options.checkpoint_writer != nullptr || options.resume != nullptr) {
    return Status::InvalidArgument(
        "level-wise miners do not checkpoint or resume; use a growth miner");
  }
  LevelwiseMiner<Lang> miner(db, options, config);
  Result<typename Lang::MiningResult> result = miner.Run();
  if (result.ok()) internal::DCheckMinerExit(*result);
  return result;
}

}  // namespace

Result<EndpointMiningResult> MineLevelwiseEndpoint(const IntervalDatabase& db,
                                                   const MinerOptions& options,
                                                   const LevelwiseConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate());
  internal::DCheckEndpointMinerEntry(db);
  return MineLevelwise<EndpointLang>(db, options, config);
}

Result<CoincidenceMiningResult> MineLevelwiseCoincidence(
    const IntervalDatabase& db, const MinerOptions& options,
    const LevelwiseConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate());
  internal::DCheckCoincidenceMinerEntry(db);
  return MineLevelwise<CoincidenceLang>(db, options, config);
}

}  // namespace tpm
