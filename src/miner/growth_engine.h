// Shared prefix-growth engine for the projection-based miners.
//
// P-TPMiner/E (endpoint language) and P-TPMiner/C (coincidence language)
// differ only in their pattern representation and extension semantics; the
// search scaffolding — projected-database buckets, support counting,
// candidate admission (the pair table, with per-node decisions memoized in
// a stamped extension-slot table), epoch-stamped postfix symbol counting
// into the allowed-symbol sets (both in ScanScratch), the per-span list of
// the postfix items a state may extend with, physical-copy baselines,
// deterministic child ordering, guard/metrics/validator hooks, and the
// recursion driver — is identical. GrowthEngine<Policy> owns all of that;
// the policy contributes the language-specific pieces:
//
//   using PatternT / ResultT;  Policy(options, GrowthConfig)
//   kBuildSpanName / kGrowSpanName / kRootScanSpanName /
//   kRootRangeSpanName / kFaultMessage
//   Build(db, threads) -> representation bytes;  NumSeqs / NumItems /
//   ItemCode
//   IntroducesSymbol(code) / SymbolOf(code)     admission gating
//   Scannable(code, allowed)                    may a state extend with it?
//   Stride() / ChildStride(code, i_ext)         aux-slice widths
//   ScanState(allow_s_ext, seq, rec, aux, items, try_push)   candidate
//                                               loops over the span's
//                                               position-sorted Scannable
//                                               items (absolute positions)
//   SelectSpan(span_view, keep)                 per-sequence dedup/dominance
//   CanEmit / MakePattern / PatternLen / NumBlocks
//   Apply / Undo (extension on the pattern stack)
//   InPattern / PatternSymbols                  pair-pruning queries
//   BeginNode / FlushNodeMetrics                per-node policy counters
//
// The engine is split into three layers (docs/ARCHITECTURE.md, "Scheduler /
// worker / merger"):
//
//   scheduler  The root-node scan produces the level-1 buckets in the
//              deterministic child order; the engine's unit table (one
//              UnitInfo per bucket) freezes that order, so a unit's id IS
//              its bucket index and means the same subtree for every thread
//              count and every checkpoint ever written. miner/scheduler.h
//              queues the ids of the units left to mine. --steal
//              additionally publishes a heavyweight unit's level-2 children
//              as stealable sub-units (the split decision depends only on
//              projection sizes, never on the thread count). A whole unit
//              and a sub-unit run through the same RunSubtree: replay the
//              path from the root, walk the subtree, undo.
//
//   workers    --threads=N runs N workers: the calling thread is worker 0
//              and N-1 helper threads are the rest (none at N=1), spawned
//              per phase through util/parallel.h. The preamble uses them
//              too: the representation build and the co-occurrence table
//              split the database into contiguous sequence ranges, and the
//              root node is worker 0's first node with its scan cut into
//              span ranges and its children's Finalize into runs of
//              children, one per worker (ExpandRoot), with every result the
//              serial one. The unit phase runs all N in the same WorkerLoop.
//              Each worker owns a WorkerSlot, created right after the
//              representation build: a copy of the built policy (cheap —
//              the language representation is shared via shared_ptr),
//              ProjectionArenas, ExecutionGuard, a ScanScratch and the list
//              arena. The unit views live in the workers' depth-1 arenas,
//              which only the root writes, so they stay put until the unit
//              phase ends. Every
//              work item charges its own plain SearchTally
//              (miner/miner_metrics.h) with non-atomic adds, so nothing
//              mutable is shared between workers on the hot path; a split
//              unit adds its sub-units' tallies at the join. Memory is the
//              exception by design: every projection arena and guard
//              charges and reads the engine's one MemoryTracker (atomic,
//              touched per arena block and per pattern, never per node), so
//              the budget bounds the whole-run total at every thread count.
//
//   merger     Workers deliver finished units (pattern bank + tally)
//              through a single mutex-guarded inbox. Worker 0 merges them
//              between its own items and in its idle back-off (and once
//              more after joining the helpers): it records them in the unit
//              table, advances the checkpoint frontier, and the run
//              assembles the final pattern list in unit-id order. The unit
//              tallies are summed — a commutative fold — and converted to
//              metrics only at checkpoint boundaries and at run end, so
//              patterns and metrics are byte-identical for any thread count
//              and any completion order.
//
// Top-K support bar: with MinerOptions::top_k = K > 0 the search floor is
// max(minsup, bar) instead of minsup. The bar is seeded from the emittable
// level-1 unit supports and raised lock-free (a CAS-max) as each worker's
// own K best emitted supports fill in, so it never exceeds the true K-th
// best support and every top-K pattern (ties included) is still mined.
// Search statistics then depend on scheduling; the output does not.
//
// Stop propagation is lock-free: every guard's on_stop funnels into a CAS
// on first_stop_reason_ plus a stop flag every worker polls, so a pattern
// cap, deadline, memory trip, or SIGINT on any thread winds down the whole
// crew with the usual bounded latency. The stop is recorded once, after the
// crew joins.
//
// Locking: WorkScheduler::mu_ and DeliveryInbox::mu are leaf locks, like
// every tpm::Mutex — no code path holds both, and neither is held across
// metrics, I/O, or policy calls (util/sync.h aborts on nesting in debug
// builds; docs/STATIC_ANALYSIS.md).
//
// Projection storage is delegated to core/projection.h: the engine stages
// into a per-worker shared arena (reset once per node) and finalizes into
// per-depth arenas (rewound when the subtree exits), making the run's
// MemoryTracker view of projection bytes exact. A node's buckets are one
// std::vector in first-touch order; each bucket's builder owns no heap, so
// the store compacts and sorts into child order by plain copies, and every
// Finalize borrows the worker's one FinalizeScratch (in its
// ProjectionArenas). Each span's scan list is carried down the DFS: a node
// builds its lists from its parent's list for the same sequence (a child's
// postfix is a suffix of its parent's, its allowed set a subset), and only
// a node with no parent list in its worker — the root, and the first node
// of every unit and sub-unit — reads the raw postfix. With postfix pruning
// the same pass counts the symbols of exactly the listed items. The lists
// live in the worker's list arena (WorkerSlot::lists), marked when a node's
// scan starts and rewound at its ReleaseNode, so it holds one DFS path's
// lists; nodes whose lists no child reads (the root, a split unit's owner)
// give each span's list back as its scan ends. Two per-worker stores sit
// outside MemoryTracker: that list arena and the FinalizeScratch (the
// largest bucket one Finalize handled). The physical-projection baselines
// differ only in that every item is Scannable for them, so the list is a
// copy of the node's whole postfix, and its bytes are charged to the run's
// account as their copy.

#pragma once


#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/projection.h"
#include "io/checkpoint.h"
#include "miner/cooccurrence.h"
#include "miner/miner_metrics.h"
#include "miner/options.h"
#include "miner/scheduler.h"
#include "miner/validate_hooks.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/memory.h"
#include "util/parallel.h"
#include "util/sched_test.h"
#include "util/sync.h"
#include "util/timer.h"

namespace tpm {

/// One postfix item a state may extend with: its absolute position in the
/// sequence and its code. A span's items are sorted by position.
struct ScanItem {
  uint32_t pos = 0;
  uint32_t code = 0;
};

/// The first of `items` at position `pos` or later. Positions strictly
/// increase, so fewer than pos - items[0].pos items precede it: a dense
/// list (every item kept) and a target past the list's end answer in O(1),
/// and only a sparse list searches, within that bound.
inline const ScanItem* FirstItemAtOrAfter(std::span<const ScanItem> items,
                                          uint32_t pos) {
  const ScanItem* const first = items.data();
  if (items.empty() || first->pos >= pos) return first;
  const ScanItem* const last =
      first + std::min<size_t>(items.size(), pos - first->pos);
  if ((last - 1)->pos < pos) return last;
  return std::partition_point(first, last - 1, [pos](const ScanItem& x) {
    return x.pos < pos;
  });
}

/// One execution context's candidate-scan scratch, reused by every node the
/// context expands. One table per context is enough: a node finishes its
/// scan before any child expands, and a split-unit owner finishes its scan
/// before it drains sub-units.
///
/// Both tables are stamped rather than cleared: an entry is live only when
/// it carries the current stamp. When a counter wraps to 0 its table is
/// cleared and the counter restarts at 1, so no mark from 2^32 bumps ago
/// can read as current.
struct ScanScratch {
  /// Postfix symbol dedup: seen_epoch[ev] == epoch once `ev` was counted in
  /// the current span. The epoch is bumped once per scanned span.
  std::vector<uint32_t> seen_epoch;
  uint32_t epoch = 0;

  /// Per symbol: the node's projected sequences whose postfix holds it.
  /// Zeroed per node (postfix pruning only), read before any child expands.
  std::vector<SupportCount> postfix_count;

  /// Extension slots, indexed by (code << 1) | i_ext. Codes are below
  /// 2 × symbols in both languages, so 4 × symbols entries cover every key.
  /// A slot holds stamp << 32 | (bucket index + 1); a low half of 0 means
  /// the candidate was rejected at this node. The stamp is bumped once per
  /// node, before its scan.
  std::vector<uint64_t> ext_slots;
  uint32_t stamp = 0;

  explicit ScanScratch(size_t num_symbols = 0)
      : seen_epoch(num_symbols, 0),
        postfix_count(num_symbols, 0),
        ext_slots(4 * num_symbols, 0) {}

  uint32_t NextEpoch() {
    if (++epoch == 0) {
      std::fill(seen_epoch.begin(), seen_epoch.end(), 0);
      epoch = 1;
    }
    return epoch;
  }

  uint32_t NextStamp() {
    if (++stamp == 0) {
      std::fill(ext_slots.begin(), ext_slots.end(), 0);
      stamp = 1;
    }
    return stamp;
  }

  uint64_t& ext_slot(uint32_t code, bool i_ext) {
    const uint64_t key = (static_cast<uint64_t>(code) << 1) | (i_ext ? 1 : 0);
    TPM_DCHECK(key < ext_slots.size());
    return ext_slots[key];
  }
};

template <typename Policy>
class GrowthEngine {
 public:
  using ResultT = typename Policy::ResultT;
  using PatternT = typename Policy::PatternT;

  GrowthEngine(const IntervalDatabase& db, const MinerOptions& options,
               const GrowthConfig& config)
      : db_(db),
        options_(options),
        baseline_(config.baseline),
        minsup_(db.AbsoluteSupport(options.min_support)),
        // Checkpointed units must bank their whole subtree, so the bar is
        // off whenever a checkpoint is written or resumed.
        top_k_(options.checkpoint_writer == nullptr && options.resume == nullptr
                   ? options.top_k
                   : 0),
        bar_(minsup_),
        policy_(options, config),
        owned_domain_(options.stats_domain != nullptr
                          ? nullptr
                          : new obs::StatsDomain(Policy::kGrowSpanName)),
        domain_(options.stats_domain != nullptr ? options.stats_domain
                                                : owned_domain_.get()),
        progress_(options.progress) {
    pair_pruning_ = !baseline_ && options_.pair_pruning;
    postfix_pruning_ = !baseline_ && options_.postfix_pruning;
    ckpt_writer_ = options.checkpoint_writer;
    resume_ = options.resume;
  }

  Result<ResultT> Run() {
    ResultT result;
    if (MinerFaultPoint("miner.alloc", &domain_->registry())) {
      domain_->RecordEvent("fault", /*a=*/0, /*b=*/0);
      return Status::ResourceExhausted(Policy::kFaultMessage);
    }
    // Run identity only matters when checkpointing is live: fingerprinting
    // walks the whole database, so the default (off) pays nothing.
    if (ckpt_writer_ != nullptr || resume_ != nullptr) {
      run_key_ = MakeRunKey();
      if (resume_ != nullptr && resume_->key != run_key_) {
        std::string msg = "checkpoint does not match this run:";
        for (const std::string& diff : DiffRunKeys(resume_->key, run_key_)) {
          msg += "\n  " + diff;
        }
        return Status::InvalidArgument(msg);
      }
    }
    run_timer_.Reset();
    // Per-run attribution against the domain registry: the domain may be
    // caller-owned and reused across runs, so deltas are still needed.
    obs_start_ = domain_->registry().Snapshot();
    domain_->RecordEvent("run.begin", db_.size(), minsup_);
    WallTimer build_timer;
    size_t rep_bytes = 0;
    {
      TPM_TRACE_SPAN(Policy::kBuildSpanName);
      rep_bytes = policy_.Build(db_, NumWorkers());
      cooc_ = CooccurrenceTable::Build(db_, minsup_, NumWorkers());
    }
    result.stats.build_bytes = rep_bytes + cooc_.MemoryBytes();
    tracker_.Allocate(result.stats.build_bytes);
    num_symbols_ = db_.dict().size();
    result.stats.build_seconds = build_timer.ElapsedSeconds();
    domain_->RecordEvent("build.done", rep_bytes, cooc_.MemoryBytes());
    for (uint32_t i = 0; i < NumWorkers(); ++i) slots_.emplace_back(this, i);
    // The calling thread is worker 0, and the root is its first node.
    WorkerSlot& w0 = slots_[0];

    WallTimer mine_timer;
    TPM_TRACE_SPAN(Policy::kGrowSpanName);
    // Root projection: one virgin state per non-empty sequence.
    ProjectionBuilder root_builder;
    root_builder.Init(/*stride=*/0, &w0.arenas, /*depth=*/0);
    for (uint32_t s = 0; s < policy_.NumSeqs(); ++s) {
      if (policy_.NumItems(s) == 0) continue;
      root_builder.Push(s, kNoStateItem, kNoStateItem);
    }
    const NodeProjection& root = root_builder.FinalizeKeepAll();
    internal::DCheckProjection(root);
    w0.arenas.staging().Reset();

    ItemOutput root_out;
    std::vector<uint8_t> allowed(num_symbols_, 1);
    if (postfix_pruning_ || pair_pruning_) {
      // The root's admission check, made once per symbol before the scan:
      // a removed symbol counts as one candidate and one hit, attributed to
      // postfix pruning when it runs (its root counts reach the same
      // verdict) and to the pair table's frequent-symbol filter otherwise.
      for (EventId e = 0; e < num_symbols_; ++e) {
        allowed[e] = cooc_.IsFrequentSymbol(e) ? 1 : 0;
        if (allowed[e] == 0) {
          ++root_out.tally.candidates;
          ++(postfix_pruning_ ? root_out.tally.postfix_hits
                              : root_out.tally.pair_hits);
        }
      }
    }
    SeedFromResume();
    if (progress_ != nullptr) {
      progress_->ConfigureWorkers(NumWorkers(), &tracker_);
    }

    // The level-1 unit views finalize into the workers' depth-1 arenas.
    // Units start at depth 1, so no worker writes or rewinds its depth-1
    // arena again before the root's release below, and every worker may
    // read the views meanwhile.
    NodeChildren root_nc;
    w0.out = &root_out;
    const bool root_entered = ExpandRoot(root, allowed, &root_nc);
    w0.out = nullptr;
    if (root_entered) {
      BuildUnits(&root_nc);
      root_child_allowed_ = &root_nc.child_allowed;
      total_units_ = units_.size();
      if (progress_ != nullptr) progress_->SetTotalBuckets(units_.size());
    }
    // Metrics watershed: everything charged to the run domain so far
    // (run.begin, build, the root-node scan's tally) is the preamble; unit
    // work is charged to per-unit tallies from here on, and the run domain
    // only accumulates the tail (run.end, stop accounting, end-of-run
    // gauges). base + unit tallies + tail partitions exactly the charges a
    // single-thread run makes, so the merged result is byte-identical for
    // every thread count — and, on a resume, composes with the prior
    // segment's boundary metrics the same way.
    root_out.tally.ChargeTo(&domain_->registry(), top_k_ > 0);
    preamble_end_ = domain_->registry().Snapshot();
    if (root_entered && ckpt_writer_ != nullptr) {
      boundary_elapsed_ =
          (resume_ != nullptr ? resume_->elapsed_seconds : 0.0) +
          run_timer_.ElapsedSeconds();
    }

    if (root_entered) {
      RunUnits();
      ReleaseNode(w0, &root_nc, 0);
      for (size_t k = 1; k < slots_.size(); ++k) slots_[k].arenas.depth(1).Reset();
    }

    uint64_t nodes = 0;
    size_t arena_bytes = 0;
    size_t lists_bytes = 0;
    uint64_t arena_blocks = 0;
    for (const WorkerSlot& s : slots_) {
      nodes += s.nodes;
      arena_bytes += s.arenas.total_allocated_bytes();
      lists_bytes += s.lists.allocated_bytes();
      arena_blocks += s.arenas.total_blocks();
    }
    const StopReason stop_reason = static_cast<StopReason>(
        first_stop_reason_.load(std::memory_order_relaxed));
    if (stop_reason != StopReason::kNone) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(stop_reason),
                           nodes);
    }
    if (!ckpt_status_.ok()) return ckpt_status_;
    // A truncated run (guard stop, cancellation/SIGINT) leaves a final
    // checkpoint at the merged completed-unit frontier so the work survives.
    // Written before assembly: AssembleResult moves the unit banks into the
    // result, and the checkpoint serializes those same banks.
    if (ckpt_writer_ != nullptr && stop_reason != StopReason::kNone) {
      TPM_RETURN_NOT_OK(WriteCheckpointNow());
      domain_->recorder().Record("ckpt.write", last_ckpt_units_,
                                 last_ckpt_patterns_);
    }
    AssembleResult(&result, &root_out.bank);
    result.stats.mine_seconds = mine_timer.ElapsedSeconds();
    result.stats.patterns_found = result.patterns.size();
    result.stats.truncated = stop_reason != StopReason::kNone;
    result.stats.stop_reason = stop_reason;
    RecordStopMetrics(stop_reason, &domain_->registry());
    SearchTally search = UnitTallies();
    search.Add(root_out.tally);
    result.stats.nodes_expanded = nodes;
    result.stats.candidates_checked = search.candidates;
    result.stats.states_created = search.states;
    result.stats.peak_tracked_bytes = tracker_.peak_bytes();
    result.stats.arena_peak_bytes = arena_bytes;
    result.stats.peak_rss_bytes = ReadPeakRssBytes();
    domain_->GetGauge("miner.arena.peak_bytes")
        ->Set(static_cast<int64_t>(arena_bytes));
    domain_->GetGauge("miner.arena.lists_bytes")
        ->Set(static_cast<int64_t>(lists_bytes));
    domain_->GetCounter("miner.arena.blocks")->Increment(arena_blocks);
    // Final VmHWM sample: a truncated run's peak was already captured by the
    // progress tracker at snapshot time; this records the end-of-run value.
    if (result.stats.peak_rss_bytes > 0) {
      domain_->GetGauge("process.peak_rss_bytes")
          ->Set(static_cast<int64_t>(result.stats.peak_rss_bytes));
    }
    domain_->RecordEvent("run.end", result.patterns.size(),
                         result.stats.nodes_expanded);
    result.stats.metrics = FinalMetrics();
    // Fold the run into the process-global registry so whole-process scrapes
    // (--metrics-out, CI smoke asserts) see every work item's charges.
    obs::MetricsRegistry::Global().MergeSnapshot(result.stats.metrics);
    if (progress_ != nullptr) progress_->Finish();
    return result;
  }

 private:
  // One extension on a path from the root: (code, i_ext).
  using Step = std::pair<uint32_t, bool>;

  // One candidate extension's child projection under construction. It owns
  // no heap memory (staging and Finalize scratch belong to the context), so
  // moving one while the store grows, compacts or sorts is a plain copy.
  struct Bucket {
    uint32_t code = 0;
    bool i_ext = false;
    ProjectionBuilder builder;
  };
  static_assert(std::is_trivially_copyable_v<Bucket>);

  // Everything one node expansion owns. Kept explicit (rather than spread
  // over engine members mutated across recursion) so sibling subtrees only
  // share read-only inputs — the property the worker layer relies on.
  struct ExpandFrame {
    // In first-touch order during the scan, then in child order. The
    // ext-slot table holds indices into it, and a pointer from bucket_for is
    // used before the next bucket is added; the store is never modified
    // after Finalize, so views and unit pointers into it stay put.
    std::vector<Bucket> buckets;
    size_t copies_bytes = 0;
    uint32_t cur_seq = 0;
  };

  // A node's finalized children, kept alive while the subtree (or, for the
  // root and split units, the scheduler) walks them. ReleaseNode undoes the
  // tracker charges and rewinds the child-depth arena.
  struct NodeChildren {
    ExpandFrame frame;
    std::vector<uint8_t> child_allowed;
    Arena::Mark child_mark;
    Arena::Mark list_mark;  ///< the worker's list arena at the node's scan
    bool entered = false;  ///< node charged and children finalized
  };

  // A node's kept span lists, for its children to build theirs from:
  // lists[i] belongs to proj->spans[i]. They live in the expanding worker's
  // list arena until the node's ReleaseNode.
  struct SpanLists {
    const NodeProjection* proj = nullptr;
    std::span<const std::span<const ScanItem>> lists;
  };

  // What one work item produces: its pattern bank and its search tally.
  struct ItemOutput {
    std::vector<MinedPattern<PatternT>> bank;
    SearchTally tally;
  };

  // One execution context: everything one worker privately owns, never
  // shared between two concurrently mining workers. `id` is the worker (and
  // progress slot) index; the calling thread is 0. The policy copy is cheap:
  // the built language representation is shared behind a shared_ptr and the
  // DFS stacks are empty. Arenas and guard charge and read the run's one
  // memory account.
  struct WorkerSlot {
    WorkerSlot(GrowthEngine* e, uint32_t worker_id)
        : id(worker_id),
          policy(e->policy_),
          arenas(&e->tracker_),
          guard(e->MakeWorkerLimits(), &e->tracker_),
          scratch(e->num_symbols_) {}
    uint32_t id = 0;
    Policy policy;
    ProjectionArenas arenas;
    ExecutionGuard guard;
    ScanScratch scratch;

    /// The span lists of the nodes on this worker's DFS path, outside
    /// MemoryTracker: a node's lists sit above its ancestors' and go at its
    /// ReleaseNode, so the arena holds one path's lists at most.
    Arena lists;
    /// Per depth: the kept lists of the node expanding there, by span.
    std::deque<std::vector<std::span<const ScanItem>>> kept_lists;

    std::vector<std::span<const ScanItem>>& KeptLists(uint32_t depth) {
      while (kept_lists.size() <= depth) kept_lists.emplace_back();
      return kept_lists[depth];
    }

    /// The current work item's bank and tally; null between items. A
    /// sub-unit mined while its owner joins restores the owner's.
    ItemOutput* out = nullptr;

    /// Min-heap of the K best supports this worker emitted (bar on only).
    std::vector<SupportCount> best;

    // Cumulative counters, folded into MiningStats after the join.
    uint64_t nodes = 0;
    uint64_t units = 0;  ///< complete units finished (miner.worker.units)
  };

  // One depth-0 subtree, in deterministic bucket order (unit id == index).
  struct UnitInfo {
    uint64_t key = 0;  ///< (code << 1) | i_ext — the checkpoint unit key
    uint32_t code = 0;
    bool i_ext = false;
    bool splittable = false;
    const NodeProjection* view = nullptr;  ///< in a worker's depth-1 arena
  };

  // The merged fate of one unit. `bank`/`tally` are written by the merger
  // (or the pre-pass / resume transfer on the calling thread) only.
  struct UnitOutcome {
    bool delivered = false;  ///< a worker finished (possibly truncated)
    bool complete = false;   ///< subtree fully mined — checkpointable
    std::vector<MinedPattern<PatternT>> bank;
    SearchTally tally;  ///< zero for resumed units (in the prior metrics)
  };

  // A resumed unit whose key did not (or cannot yet) match a bucket: kept
  // verbatim so its patterns and checkpoint claim survive even when the run
  // stops before the root scan rebuilds the bucket set.
  struct ResumeUnit {
    uint64_t key = 0;
    std::vector<MinedPattern<PatternT>> bank;
  };

  // What a worker hands the merger for one finished unit.
  struct UnitDelivery {
    uint64_t unit_id = 0;
    bool complete = false;
    ItemOutput out;
  };

  // Leaf lock: held only around the vector ops.
  struct DeliveryInbox {
    Mutex mu;
    std::vector<UnitDelivery> items TPM_GUARDED_BY(mu);
  };

  // Join state for one split unit; `remaining` is the release/acquire
  // barrier that publishes the thieves' banks back to the owner.
  struct SplitState {
    std::atomic<uint32_t> remaining{0};
  };

  // One stealable level-2 child of a split unit. The view and allowed set
  // live in the owner's arenas / NodeChildren, which the owner keeps alive
  // (and does not rewind) until every sub joined. `out`/`complete` are
  // written by the thief before its release-decrement on `remaining` and
  // read by the owner after the acquire-load observes zero.
  struct SubUnit {
    const NodeProjection* view = nullptr;
    const std::vector<uint8_t>* allowed = nullptr;
    std::vector<Step> path;  ///< the replay from the root
    SplitState* split = nullptr;
    bool complete = false;
    ItemOutput out;
  };

  // ---- Worker layer ----------------------------------------------------

  /// One consolidated stop poll: the context's own guard first (sticky),
  /// then the crew-wide flag (tripping this guard so the stop reason and
  /// on_stop accounting stay uniform), then the guard's own limits.
  bool WorkerShouldStop(WorkerSlot& w) {
    if (w.guard.stopped()) return true;
    if (stop_flag_.load(std::memory_order_relaxed)) {
      w.guard.Trip(StopReason::kCancelled);
      return true;
    }
    return w.guard.ShouldStop();
  }

  /// Expands one node: charges it, emits when the policy deems the pattern
  /// complete, scans the projection, and finalizes the children into `nc`.
  /// Each span's item list is built from the parent's list for the same
  /// sequence when `parent` has them, else from the raw postfix. The lists
  /// go into `kept` for the children, or, when it is null (no child of this
  /// node reads them), back to the list arena as each span's scan ends.
  /// Returns false when the node produced no children to walk (guard stop,
  /// emit-time stop, or the max_items cutoff) — `nc` is untouched then and
  /// needs no ReleaseNode.
  bool ExpandNode(WorkerSlot& w, const NodeProjection& proj,
                  const std::vector<uint8_t>& allowed, uint32_t depth,
                  const SpanLists* parent,
                  std::vector<std::span<const ScanItem>>* kept,
                  NodeChildren* nc) {
    if (!EnterNode(w, proj)) return false;
    nc->list_mark = w.lists.mark();
    if (kept != nullptr) kept->clear();
    ScanSpans(w, proj, allowed, depth, parent, kept, {0, proj.num_spans},
              &nc->frame, &w.out->tally);
    FinishNode(w, allowed, depth, nc);
    return true;
  }

  /// The root node, its scan and its children's Finalize cut into
  /// contiguous ranges, one per worker. Range k scans a span range into
  /// worker k's own buckets, staging arena, scratch and tally. Each key's
  /// staged chunks are then joined in range order, so every child's spans
  /// stay increasing by sequence and its projection is the serial one. The
  /// children, in child order, are cut into contiguous runs of about equal
  /// staged states, and worker k finalizes run k into its own depth-1 arena,
  /// which only the root ever writes. The tally is the serial one too:
  /// states, scan items, validity closes and the per-symbol postfix counts
  /// sum over the ranges, a key is one candidate however many ranges touched
  /// it (the root admits every key it touches: its pattern has no symbol for
  /// the pair table to check), and the depth-1 bytes are summed over the
  /// workers. One range is the serial expansion.
  bool ExpandRoot(const NodeProjection& root, const std::vector<uint8_t>& allowed,
                  NodeChildren* nc) {
    TPM_TRACE_SPAN(Policy::kRootScanSpanName);
    WorkerSlot& w0 = slots_[0];
    if (!EnterNode(w0, root)) return false;
    nc->list_mark = w0.lists.mark();
    const uint32_t n = NumRanges(root.num_spans, NumWorkers());
    std::vector<ExpandFrame> frames(n);
    std::vector<SearchTally> tallies(n);
    RunOnWorkers(n, [&](uint32_t k) {
      TPM_TRACE_SPAN(Policy::kRootRangeSpanName);
      ScanSpans(slots_[k], root, allowed, /*depth=*/0, /*parent=*/nullptr,
                /*kept=*/nullptr, SplitRange(root.num_spans, n, k), &frames[k],
                &tallies[k]);
    });

    // Range 0's buckets become the children; a later range's bucket joins
    // the child of its key (this merge's stamp in w0's ext-slot table), or
    // becomes a new one. Ranges join in range order.
    std::vector<Bucket>& buckets = nc->frame.buckets;
    buckets = std::move(frames[0].buckets);
    ScanScratch& scratch = w0.scratch;
    const uint64_t stamp = static_cast<uint64_t>(scratch.NextStamp()) << 32;
    for (size_t i = 0; i < buckets.size(); ++i) {
      scratch.ext_slot(buckets[i].code, buckets[i].i_ext) = stamp | (i + 1);
    }
    for (uint32_t k = 1; k < n; ++k) {
      for (Bucket& b : frames[k].buckets) {
        uint64_t& slot = scratch.ext_slot(b.code, b.i_ext);
        if ((slot & ~uint64_t{0xFFFFFFFF}) != stamp) {
          slot = stamp | (buckets.size() + 1);
          Bucket& child = buckets.emplace_back();
          child.code = b.code;
          child.i_ext = b.i_ext;
          child.builder.Init(w0.policy.ChildStride(b.code, b.i_ext), &w0.arenas,
                             /*depth=*/1);
        }
        buckets[static_cast<uint32_t>(slot) - 1].builder.Join(&b.builder);
      }
      nc->frame.copies_bytes += frames[k].copies_bytes;
      std::vector<Bucket>().swap(frames[k].buckets);
    }
    nc->frame.copies_bytes += frames[0].copies_bytes;

    SearchTally& tally = w0.out->tally;
    for (uint32_t k = 0; k < n; ++k) {
      TPM_DCHECK(tallies[k].pair_hits == 0);
      tallies[k].candidates = 0;
      tally.Add(tallies[k]);
      if (k > 0 && postfix_pruning_) {
        std::vector<SupportCount>& sum = scratch.postfix_count;
        const std::vector<SupportCount>& part = slots_[k].scratch.postfix_count;
        for (EventId e = 0; e < num_symbols_; ++e) sum[e] += part[e];
      }
    }
    tally.candidates += buckets.size();
    PrepareChildren(w0, allowed, /*depth=*/0, nc);

    // The children, in child order, cut into contiguous runs of about equal
    // staged states: worker k finalizes run k, into its own depth-1 arena.
    size_t total_states = 0;
    for (const Bucket& b : buckets) total_states += b.builder.num_staged_states();
    std::vector<size_t> run_begin(n + 1, buckets.size());
    size_t states_before = 0;
    for (size_t c = 0; c < buckets.size(); ++c) {
      const size_t k = states_before * n / total_states;
      run_begin[k] = std::min(run_begin[k], c);
      states_before += buckets[c].builder.num_staged_states();
    }
    for (uint32_t k = n; k > 0; --k) {
      run_begin[k - 1] = std::min(run_begin[k - 1], run_begin[k]);
    }
    nc->child_mark = w0.arenas.depth(1).mark();
    RunOnWorkers(n, [&](uint32_t k) {
      TPM_TRACE_SPAN(Policy::kRootRangeSpanName);
      for (size_t c = run_begin[k]; c < run_begin[k + 1]; ++c) {
        buckets[c].builder.Rebind(&slots_[k].arenas);
        FinalizeChild(slots_[k], &buckets[c]);
      }
    });
    size_t depth1_bytes = 0;
    for (uint32_t k = 0; k < n; ++k) {
      slots_[k].arenas.staging().Reset();
      depth1_bytes += slots_[k].arenas.depth(1).used_bytes();
    }
    tally.arena_depth_bytes.Observe(depth1_bytes);
    nc->entered = true;
    return true;
  }

  /// A node's entry: the arena-lifetime check, the stop poll, the node's
  /// charges and its pattern's emission. False when the node is not
  /// expanded (guard stop, emit-time stop, or the max_items cutoff).
  bool EnterNode(WorkerSlot& w, const NodeProjection& proj) {
    // Arena-lifetime contract: the projection's depth arena must not have
    // rewound since Finalize (docs/ARCHITECTURE.md). A violation here means
    // a frame was released while its subtree (or a stolen sub-unit of it)
    // was still live — exactly the bug class the scheduler could introduce.
    proj.CheckAlive();
    if (WorkerShouldStop(w)) return false;
    ++w.nodes;
    if (progress_ != nullptr) progress_->TickWorker(w.id);
    SearchTally& tally = w.out->tally;
    tally.nodes.Observe(w.policy.PatternLen());
    tally.projected_seqs.Observe(proj.num_spans);
    tally.projected_states.Observe(proj.num_states);

    // Report the pattern at this node when the policy deems it complete.
    if (w.policy.CanEmit()) {
      EmitPattern(w, static_cast<SupportCount>(proj.num_spans));
      if (w.guard.stopped()) return false;
    }
    return options_.max_items == 0 || w.policy.PatternLen() < options_.max_items;
  }

  /// Scans the spans in `range` of a node at `depth` with worker `w`'s
  /// policy, scratch and list arena: stages the candidate children into
  /// `frame`'s buckets (in w's staging arena), charges `tally`, and, with
  /// postfix pruning, leaves the symbol counts of the listed items in
  /// w.scratch.postfix_count.
  void ScanSpans(WorkerSlot& w, const NodeProjection& proj,
                 const std::vector<uint8_t>& allowed, uint32_t depth,
                 const SpanLists* parent,
                 std::vector<std::span<const ScanItem>>* kept, IndexRange range,
                 ExpandFrame* frame_ptr, SearchTally* tally_ptr) {
    ExpandFrame& frame = *frame_ptr;
    SearchTally& tally = *tally_ptr;
    w.policy.BeginNode();
    const bool allow_s_ext = options_.max_length == 0 ||
                             w.policy.NumBlocks() < options_.max_length ||
                             w.policy.PatternLen() == 0;
    const uint8_t* const filter =
        postfix_pruning_ || pair_pruning_ ? allowed.data() : nullptr;

    ScanScratch& scratch = w.scratch;
    Arena& lists = w.lists;
    if (postfix_pruning_) {
      std::fill(scratch.postfix_count.begin(), scratch.postfix_count.end(), 0);
    }

    // Each (code, i_ext) key is decided once per node: its slot carries this
    // node's stamp from the first touch on.
    const uint64_t stamp = static_cast<uint64_t>(scratch.NextStamp()) << 32;
    auto bucket_for = [&](uint32_t code, bool i_ext) -> Bucket* {
      uint64_t& slot = scratch.ext_slot(code, i_ext);
      if ((slot & ~uint64_t{0xFFFFFFFF}) == stamp) {
        const uint32_t idx = static_cast<uint32_t>(slot);
        return idx == 0 ? nullptr : &frame.buckets[idx - 1];
      }
      ++tally.candidates;
      slot = stamp;  // rejected unless admitted below
      // Pair-table admission for extensions introducing a new symbol. The
      // span's item list already left out every symbol outside the filter.
      if (Policy::IntroducesSymbol(code)) {
        const EventId ev = Policy::SymbolOf(code);
        TPM_DCHECK(filter == nullptr || filter[ev] != 0);
        if (pair_pruning_ && !w.policy.InPattern(ev)) {
          for (EventId a : w.policy.PatternSymbols()) {
            if (!cooc_.IsFrequentPair(a, ev)) {
              ++tally.pair_hits;
              return nullptr;
            }
          }
        }
      }
      slot = stamp | (frame.buckets.size() + 1);
      frame.buckets.emplace_back();
      Bucket& b = frame.buckets.back();
      b.code = code;
      b.i_ext = i_ext;
      b.builder.Init(w.policy.ChildStride(code, i_ext), &w.arenas, depth + 1);
      return &b;
    };

    auto try_push = [&](uint32_t code, bool i_ext, uint32_t item,
                        uint32_t anchor) -> uint32_t* {
      Bucket* b = bucket_for(code, i_ext);
      if (b == nullptr) return nullptr;
      ++tally.states;
      return b->builder.Push(frame.cur_seq, item, anchor);
    };

    // The span's item list: the postfix items from min_item on that a state
    // may extend with (Scannable), at their absolute positions. A child's
    // postfix is a suffix of its parent's and its filter a subset, so the
    // parent's list for the same sequence, from min_item on, holds every
    // item the child's list keeps; only a node without a parent list reads
    // the raw postfix. The list is allocated at its upper bound and its
    // unused tail given back. With postfix pruning the same pass counts the
    // symbols of the listed items for the children's allowed set (symbols
    // already disallowed stay so whatever their count: skip them). Counting
    // exactly the listed items keeps the two sources' counts equal. The
    // mode is a compile-time tag, so neither loop branches on it per item.
    auto list_items = [&](const SeqSpan& sp, uint32_t min_item,
                          const std::span<const ScanItem>* from,
                          auto count_postfix) -> std::span<const ScanItem> {
      constexpr bool kCount = decltype(count_postfix)::value;
      [[maybe_unused]] const uint32_t epoch =
          kCount ? scratch.NextEpoch() : 0;
      ScanItem* out = nullptr;
      size_t n = 0;
      auto keep = [&](uint32_t pos, uint32_t code) {
        if (!w.policy.Scannable(code, filter)) return;
        out[n++] = {pos, code};
        if constexpr (kCount) {
          const EventId ev = Policy::SymbolOf(code);
          if (allowed[ev] != 0 && scratch.seen_epoch[ev] != epoch) {
            scratch.seen_epoch[ev] = epoch;
            ++scratch.postfix_count[ev];
          }
        }
      };
      size_t bound = 0;
      if (from != nullptr) {
        const ScanItem* it = FirstItemAtOrAfter(*from, min_item);
        const ScanItem* const end = from->data() + from->size();
        bound = static_cast<size_t>(end - it);
        out = lists.AllocateArray<ScanItem>(bound);
        for (; it != end; ++it) keep(it->pos, it->code);
      } else {
        const uint32_t nitems = w.policy.NumItems(sp.seq);
        bound = nitems - min_item;
        out = lists.AllocateArray<ScanItem>(bound);
        for (uint32_t p = min_item; p < nitems; ++p) {
          keep(p, w.policy.ItemCode(sp.seq, p));
        }
      }
      lists.TryShrink(out, bound * sizeof(ScanItem), n * sizeof(ScanItem));
      return {out, n};
    };

    // ---- Candidate scan ------------------------------------------------
    uint32_t pj = 0;  // cursor over the parent's spans
    for (size_t si = range.begin; si < range.end; ++si) {
      const SeqSpan& sp = proj.spans[si];
      frame.cur_seq = sp.seq;

      uint32_t min_item = ~0u;
      for (uint32_t i = 0; i < sp.count; ++i) {
        const StateRec& r = proj.states[sp.offset + i];
        min_item =
            std::min(min_item, r.item == kNoStateItem ? 0 : r.item + 1);
      }

      // Child spans are a subset of the parent's, both in sequence order.
      const std::span<const ScanItem>* from = nullptr;
      if (parent != nullptr) {
        while (parent->proj->spans[pj].seq < sp.seq) ++pj;
        TPM_DCHECK(pj < parent->proj->num_spans &&
                   parent->proj->spans[pj].seq == sp.seq);
        from = &parent->lists[pj];
      }
      const std::span<const ScanItem> items =
          postfix_pruning_ ? list_items(sp, min_item, from, std::true_type{})
                           : list_items(sp, min_item, from, std::false_type{});
      // TPrefixSpan / CTMiner: without a filter or validity pruning every
      // item is Scannable, so the list is the node's whole postfix, copied.
      if (baseline_) frame.copies_bytes += items.size_bytes();
      tally.scan_items += items.size();

      for (uint32_t i = 0; i < sp.count; ++i) {
        const size_t state_index = sp.offset + i;
        w.policy.ScanState(allow_s_ext, sp.seq, proj.states[state_index],
                           proj.aux_of(state_index), items, try_push);
      }
      if (kept != nullptr) {
        kept->push_back(items);
      } else {
        lists.TryShrink(items.data(), items.size_bytes(), 0);
      }
    }

    w.policy.FlushNodeMetrics(&tally);
  }

  /// A scanned node's children: PrepareChildren, then every bucket
  /// finalized into w's child-depth arena.
  void FinishNode(WorkerSlot& w, const std::vector<uint8_t>& allowed,
                  uint32_t depth, NodeChildren* nc) {
    PrepareChildren(w, allowed, depth, nc);
    Arena& child_arena = w.arenas.depth(depth + 1);
    nc->child_mark = child_arena.mark();
    for (Bucket& b : nc->frame.buckets) FinalizeChild(w, &b);
    // All parents up this context's stack finalized before recursing, so
    // nothing else is staged: the staging arena can rewind to empty.
    w.arenas.staging().Reset();
    w.out->tally.arena_depth_bytes.Observe(child_arena.used_bytes());
    nc->entered = true;
  }

  /// The children's allowed set, from the postfix counts in w.scratch, and
  /// the frame's buckets kept and sorted into child order.
  void PrepareChildren(WorkerSlot& w, const std::vector<uint8_t>& allowed,
                       uint32_t depth, NodeChildren* nc) {
    ExpandFrame& frame = nc->frame;
    SearchTally& tally = w.out->tally;
    nc->child_allowed = allowed;
    if (postfix_pruning_) {
      const SupportCount floor = Floor();
      for (EventId e = 0; e < num_symbols_; ++e) {
        if (allowed[e] != 0 && w.scratch.postfix_count[e] < floor) {
          nc->child_allowed[e] = 0;
          ++tally.postfix_hits;
        }
      }
    }

    // Projection storage is charged exactly by the arenas as blocks map;
    // only the baselines' physical postfix copies are charged here (never
    // for P-TPMiner, which keeps the shared account off the per-node path).
    if (frame.copies_bytes > 0) tracker_.Allocate(frame.copies_bytes);

    // Below the root, a child staged in fewer sequences than minsup can
    // never be expanded (selection only drops states), so it is discarded
    // unfinalized. Root buckets are all kept: they are the work units.
    if (depth > 0) {
      std::erase_if(frame.buckets, [this](const Bucket& b) {
        return b.builder.num_spans() < minsup_;
      });
    }

    // Deterministic child order.
    std::sort(frame.buckets.begin(), frame.buckets.end(),
              [](const Bucket& a, const Bucket& b) {
                if (a.i_ext != b.i_ext) return a.i_ext > b.i_ext;
                return a.code < b.code;
              });
  }

  /// Finalizes one child into its builder's depth arena, selecting each
  /// span's states with w's policy.
  void FinalizeChild(WorkerSlot& w, Bucket* b) {
    const NodeProjection& view = b->builder.Finalize(
        [&w](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
          w.policy.SelectSpan(v, keep);
        });
    internal::DCheckProjection(view);
  }

  void ReleaseNode(WorkerSlot& w, NodeChildren* nc, uint32_t depth) {
    if (nc->frame.copies_bytes > 0) tracker_.Release(nc->frame.copies_bytes);
    w.arenas.depth(depth + 1).Rewind(nc->child_mark);
    w.lists.Rewind(nc->list_mark);
  }

  /// The recursion driver below the unit roots: expand, walk the frequent
  /// children depth-first, release. `parent` holds the parent node's span
  /// lists, or is null where this worker has none (a subtree's first node).
  void ExpandSubtree(WorkerSlot& w, const NodeProjection& proj,
                     const std::vector<uint8_t>& allowed, uint32_t depth,
                     const SpanLists* parent) {
    NodeChildren nc;
    std::vector<std::span<const ScanItem>>& kept = w.KeptLists(depth);
    if (!ExpandNode(w, proj, allowed, depth, parent, &kept, &nc)) return;
    const SpanLists lists{&proj, kept};
    for (Bucket& b : nc.frame.buckets) {
      if (w.guard.stopped()) break;
      const NodeProjection& view = b.builder.view();
      if (BelowFloor(&w.out->tally, view.num_spans)) continue;
      w.policy.Apply(b.code, b.i_ext);
      ExpandSubtree(w, view, nc.child_allowed, depth + 1, &lists);
      w.policy.Undo(b.code, b.i_ext);
    }
    ReleaseNode(w, &nc, depth);
  }

  /// Claims the pattern's slot in the run-wide total before keeping it, so
  /// concurrent emitters cannot overshoot max_patterns: a worker whose slot
  /// is past the cap keeps nothing and stops.
  void EmitPattern(WorkerSlot& w, SupportCount support) {
    const uint64_t slot =
        patterns_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.max_patterns > 0 && slot > options_.max_patterns) {
      w.guard.Trip(StopReason::kPatternCap);
      return;
    }
    w.out->bank.push_back(
        MinedPattern<PatternT>{w.policy.MakePattern(), support});
    ++w.out->tally.patterns;
    if (progress_ != nullptr) progress_->NoteWorkerPattern(w.id);
    // items + slice offsets (incl. the trailing end offset).
    tracker_.Allocate((w.policy.PatternLen() + w.policy.NumBlocks() + 1) *
                      sizeof(uint32_t));
    w.guard.NotePattern(slot);
    if (top_k_ > 0) OfferSupport(w, support);
  }

  // ---- Top-K support bar -----------------------------------------------

  /// The search floor: minsup, or the bar once top_k raised it.
  SupportCount Floor() const { return bar_.load(std::memory_order_relaxed); }

  /// True when a node of this support is below the floor. Charges
  /// prune.topk.hits to `tally` when the bar, not minsup, is what cut it
  /// (never with the bar off: the floor is then minsup itself).
  bool BelowFloor(SearchTally* tally, SupportCount support) const {
    if (support >= Floor()) return false;
    if (support >= minsup_) ++tally->topk_hits;
    return true;
  }

  /// CAS-max: the bar only ever rises.
  void RaiseBar(SupportCount support) {
    SupportCount cur = bar_.load(std::memory_order_relaxed);
    while (support > cur &&
           !bar_.compare_exchange_weak(cur, support,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Keeps the context's K best emitted supports. They belong to K distinct
  /// patterns, so once K are held their minimum is a lower bound on the
  /// run's K-th best support and may become the bar.
  void OfferSupport(WorkerSlot& w, SupportCount support) {
    std::vector<SupportCount>& heap = w.best;
    if (heap.size() < top_k_) {
      heap.push_back(support);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      if (heap.size() < top_k_) return;
    } else if (support > heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() = support;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    } else {
      return;
    }
    RaiseBar(heap.front());
  }

  /// Seeds the bar with the K-th best support among the level-1 patterns
  /// the unit roots will emit. Deterministic: it depends only on the root
  /// scan. Endpoint unit roots hold an open interval and seed nothing.
  void SeedBar() {
    std::vector<SupportCount> level1;
    for (const UnitInfo& u : units_) {
      const SupportCount support = u.view->num_spans;
      if (support < minsup_) continue;
      policy_.Apply(u.code, u.i_ext);
      if (policy_.CanEmit()) level1.push_back(support);
      policy_.Undo(u.code, u.i_ext);
    }
    if (level1.size() < top_k_) return;
    std::nth_element(level1.begin(), level1.begin() + (top_k_ - 1),
                     level1.end(), std::greater<>());
    RaiseBar(level1[top_k_ - 1]);
  }

  // ---- Scheduler layer -------------------------------------------------

  /// Freezes the root's bucket walk into the deterministic unit table and
  /// transfers resumed unit banks onto their units.
  void BuildUnits(NodeChildren* root_nc) {
    std::unordered_map<uint64_t, size_t> by_key;
    units_.reserve(root_nc->frame.buckets.size());
    for (Bucket& b : root_nc->frame.buckets) {
      UnitInfo u;
      u.code = b.code;
      u.i_ext = b.i_ext;
      u.key = (static_cast<uint64_t>(b.code) << 1) | (b.i_ext ? 1 : 0);
      u.view = &b.builder.view();
      by_key.emplace(u.key, units_.size());
      units_.push_back(u);
    }
    outcomes_.resize(units_.size());
    if (top_k_ > 0) SeedBar();
    if (options_.steal) {
      std::vector<uint64_t> weights;
      weights.reserve(units_.size());
      for (const UnitInfo& u : units_) weights.push_back(u.view->num_spans);
      // Thread-count independent: the split set depends only on the
      // projection sizes, so the work-item set (and every per-item tally)
      // is the same for any --threads.
      const std::vector<bool> splittable =
          MarkSplittableUnits(weights, minsup_);
      for (size_t i = 0; i < units_.size(); ++i) {
        units_[i].splittable = splittable[i];
      }
    }
    // Attach resumed banks to their units; a key with no bucket (possible
    // only for a tampered-but-CRC-valid checkpoint) stays orphaned and is
    // still carried through result assembly and checkpoint writes.
    std::vector<ResumeUnit> leftovers;
    for (ResumeUnit& r : orphan_units_) {
      auto it = by_key.find(r.key);
      if (it == by_key.end()) {
        leftovers.push_back(std::move(r));
        continue;
      }
      UnitOutcome& o = outcomes_[it->second];
      o.delivered = true;
      o.complete = true;
      o.bank = std::move(r.bank);
    }
    orphan_units_.swap(leftovers);
  }

  /// The unit phase: pre-pass trivial units on the calling thread, then
  /// drain the scheduler with N workers — the calling thread as worker 0
  /// (and merger) plus N-1 helper threads — and merge what is left.
  void RunUnits() {
    std::vector<uint64_t> pending;
    for (size_t i = 0; i < units_.size(); ++i) {
      if (outcomes_[i].delivered) {
        // Seeded from the checkpoint: re-expanding would double-count both
        // the patterns and the metrics.
        if (progress_ != nullptr) progress_->NoteWorkerBucketDone(0);
        continue;
      }
      UnitOutcome& o = outcomes_[i];
      if (BelowFloor(&o.tally, units_[i].view->num_spans)) {
        if (progress_ != nullptr) progress_->NoteWorkerBucketDone(0);
        o.delivered = true;
        o.complete = true;
        OnUnitComplete(i);
        if (!ckpt_status_.ok()) return;
        continue;
      }
      pending.push_back(i);
    }
    if (pending.empty()) return;
    scheduler_.Reset(std::move(pending));
    open_items_.store(scheduler_.units_pending(), std::memory_order_relaxed);

    RunOnWorkers(NumWorkers(), [this](uint32_t k) { WorkerLoop(slots_[k]); });
    MergeDeliveries();
  }

  uint32_t NumWorkers() const {
    return options_.threads > 0 ? options_.threads : 1;
  }

  /// Runs until the scheduler drains or a stop (guard trip, SIGINT,
  /// checkpoint failure) winds the crew down. Worker 0 also merges after
  /// each of its items, so deliveries and periodic checkpoints fold between
  /// them.
  void WorkerLoop(WorkerSlot& w) {
    while (!w.guard.stopped() &&
           !stop_flag_.load(std::memory_order_relaxed)) {
      WorkItem item;
      if (scheduler_.TryNext(&item)) {
        ProcessItem(w, item);
        if (w.id == 0) MergeDeliveries();
      } else if (open_items_.load(std::memory_order_acquire) == 0) {
        break;
      } else {
        // Another worker is splitting a unit (its subs are not published
        // yet) or the tail items are in flight elsewhere.
        IdleBackoff(w, std::chrono::microseconds(50));
      }
    }
  }

  /// Waits a little for other workers; worker 0 merges and keeps the
  /// progress line moving meanwhile.
  void IdleBackoff(WorkerSlot& w, std::chrono::microseconds pause) {
    if (w.id == 0) {
      MergeDeliveries();
      if (progress_ != nullptr) progress_->PollEmit();
    }
    std::this_thread::sleep_for(pause);
  }

  void ProcessItem(WorkerSlot& w, const WorkItem& item) {
    if (item.kind == WorkItem::Kind::kSub) {
      SubUnit& s = *static_cast<SubUnit*>(item.sub);
      s.complete = RunSubtree(w, *s.view, *s.allowed, s.path, &s.out);
      // Release-decrement publishes out/complete to the owner's acquire-load
      // in ProcessSplitUnit.
      s.split->remaining.fetch_sub(1, std::memory_order_release);
    } else if (units_[item.unit_id].splittable) {
      ProcessSplitUnit(w, item.unit_id);
    } else {
      const UnitInfo& u = units_[item.unit_id];
      const Step step{u.code, u.i_ext};
      ItemOutput out;
      const bool complete = RunSubtree(w, *u.view, *root_child_allowed_,
                                       {&step, 1}, &out);
      FinishUnit(w, item.unit_id, complete, std::move(out));
    }
    open_items_.fetch_sub(1, std::memory_order_release);
  }

  /// Mines the subtree under `view`, the node the root reaches by `path`,
  /// into `out`: a whole unit (a path of one step) or a stolen sub-unit.
  /// The bar may have risen past the node since it was queued. Returns
  /// whether the subtree finished, i.e. no stop tripped.
  bool RunSubtree(WorkerSlot& w, const NodeProjection& view,
                  const std::vector<uint8_t>& allowed,
                  std::span<const Step> path, ItemOutput* out) {
    ItemOutput* const outer = std::exchange(w.out, out);
    if (!BelowFloor(&out->tally, view.num_spans)) {
      for (const Step& step : path) w.policy.Apply(step.first, step.second);
      ExpandSubtree(w, view, allowed, static_cast<uint32_t>(path.size()),
                    /*parent=*/nullptr);
      for (size_t i = path.size(); i > 0; --i) {
        w.policy.Undo(path[i - 1].first, path[i - 1].second);
      }
    }
    w.out = outer;
    return !w.guard.stopped();
  }

  /// --steal path for a splittable unit: expand the unit root, publish its
  /// frequent children as stealable sub-units, help drain sub-units (only —
  /// whole units would rewind this context's shallow arenas under the
  /// thieves) until every child joined, then assemble the unit exactly as
  /// if it had been mined in one piece.
  void ProcessSplitUnit(WorkerSlot& w, uint64_t unit_id) {
    const UnitInfo& u = units_[unit_id];
    ItemOutput out;
    ItemOutput* const outer = std::exchange(w.out, &out);
    w.policy.Apply(u.code, u.i_ext);
    NodeChildren nc;
    const bool entered =
        !BelowFloor(&out.tally, u.view->num_spans) &&
        ExpandNode(w, *u.view, *root_child_allowed_, /*depth=*/1,
                   /*parent=*/nullptr, /*kept=*/nullptr, &nc);
    std::deque<SubUnit> subs;  // stable addresses: published by pointer
    SplitState split;
    if (entered) {
      std::vector<void*> published;
      for (Bucket& b : nc.frame.buckets) {
        const NodeProjection& view = b.builder.view();
        if (BelowFloor(&out.tally, view.num_spans)) continue;
        subs.emplace_back();
        SubUnit& s = subs.back();
        s.view = &view;
        s.allowed = &nc.child_allowed;
        s.path.push_back({u.code, u.i_ext});
        s.path.push_back({b.code, b.i_ext});
        s.split = &split;
        published.push_back(&s);
      }
      split.remaining.store(static_cast<uint32_t>(subs.size()),
                            std::memory_order_release);
      if (!subs.empty()) {
        open_items_.fetch_add(subs.size(), std::memory_order_relaxed);
        scheduler_.PushSubs(unit_id, published);
      }
    }
    w.policy.Undo(u.code, u.i_ext);
    // Drain until the children are all accounted for. This keeps going even
    // when a stop tripped: a stopped crew unwinds sub-units fast, and the
    // join must complete before the owner's arenas may rewind.
    while (split.remaining.load(std::memory_order_acquire) > 0) {
      WorkItem item;
      if (scheduler_.TryNextSub(&item)) {
        ProcessItem(w, item);
      } else {
        IdleBackoff(w, std::chrono::microseconds(20));
      }
    }
    if (entered) ReleaseNode(w, &nc, /*depth=*/1);
    w.out = outer;
    bool complete = !w.guard.stopped();
    for (SubUnit& s : subs) {  // child order: the serial emission order
      complete = complete && s.complete;
      for (MinedPattern<PatternT>& p : s.out.bank) {
        out.bank.push_back(std::move(p));
      }
      out.tally.Add(s.out.tally);
    }
    FinishUnit(w, unit_id, complete, std::move(out));
  }

  void FinishUnit(WorkerSlot& w, uint64_t unit_id, bool complete,
                  ItemOutput out) {
    DeliverUnit(unit_id, complete, std::move(out));
    if (complete) ++w.units;
    if (progress_ != nullptr) progress_->NoteWorkerBucketDone(w.id);
  }

  // ---- Merger layer ----------------------------------------------------

  void DeliverUnit(uint64_t unit_id, bool complete, ItemOutput out) {
    UnitDelivery d;
    d.unit_id = unit_id;
    d.complete = complete;
    d.out = std::move(out);
    // Tier E seam: delivery timing relative to other workers and the merger
    // must not matter (util/sched_test.h).
    TPM_TEST_YIELD("miner.unit.deliver");
    MutexLock lock(&inbox_.mu);
    inbox_.items.push_back(std::move(d));
  }

  /// Worker 0 (the calling thread) only: folds delivered units into the
  /// outcome table and advances the checkpoint frontier. Incomplete
  /// (stop-truncated) units keep their partial bank for the result but are
  /// never checkpointed.
  void MergeDeliveries() {
    std::vector<UnitDelivery> batch;
    {
      MutexLock lock(&inbox_.mu);
      batch.swap(inbox_.items);
    }
    for (UnitDelivery& d : batch) {
      UnitOutcome& o = outcomes_[d.unit_id];
      o.delivered = true;
      o.complete = d.complete;
      o.bank = std::move(d.out.bank);
      o.tally = d.out.tally;
      if (d.complete) {
        OnUnitComplete(d.unit_id);
        if (!ckpt_status_.ok()) return;
      }
    }
  }

  void OnUnitComplete(uint64_t /*unit_id*/) {
    // Tier E seam: the checkpoint-unit boundary — where completed work
    // becomes durable state (util/sched_test.h).
    TPM_TEST_YIELD("miner.unit_boundary");
    if (ckpt_writer_ == nullptr) return;
    boundary_elapsed_ =
        (resume_ != nullptr ? resume_->elapsed_seconds : 0.0) +
        run_timer_.ElapsedSeconds();
    if (!ckpt_writer_->Due()) return;
    const Status st = WriteCheckpointNow();
    if (st.ok()) {
      domain_->recorder().Record("ckpt.write", last_ckpt_units_,
                                 last_ckpt_patterns_);
    } else {
      // Surfaced after the crew winds down: a checkpoint that cannot be
      // written is a run failure, not something to silently drop.
      ckpt_status_ = st;
      stop_flag_.store(true, std::memory_order_release);
    }
  }

  /// Stop-propagation hub: first reason wins, and the flag winds every
  /// worker down (each trips its own guard as kCancelled, which the CAS
  /// then ignores). Safe from any thread; called from guard on_stop hooks.
  void NoteStop(StopReason reason) {
    int expected = 0;
    first_stop_reason_.compare_exchange_strong(
        expected, static_cast<int>(reason), std::memory_order_relaxed);
    stop_flag_.store(true, std::memory_order_release);
  }

  void AssembleResult(ResultT* result,
                      std::vector<MinedPattern<PatternT>>* root_bank) {
    size_t total = root_bank->size();
    for (const ResumeUnit& r : orphan_units_) total += r.bank.size();
    for (const UnitOutcome& o : outcomes_) total += o.bank.size();
    result->patterns.reserve(total);
    auto append = [&](std::vector<MinedPattern<PatternT>>& bank) {
      for (MinedPattern<PatternT>& p : bank) {
        result->patterns.push_back(std::move(p));
      }
      bank.clear();
    };
    append(*root_bank);
    // Orphans (resume seeds with no matching bucket — including the case
    // where a pre-unit stop meant the buckets were never built) first, then
    // every unit's bank in unit-id order: the same concatenation the
    // single-thread recursion produced, for any completion order.
    for (ResumeUnit& r : orphan_units_) append(r.bank);
    for (UnitOutcome& o : outcomes_) append(o.bank);
  }

  // ---- Metrics composition ---------------------------------------------

  /// base (preamble delta, or the resumed segment's boundary metrics) +
  /// the sum of every delivered unit's tally + the run domain's tail + the
  /// workers' scheduling attribution, folded in that fixed order. Resumed
  /// units carry a zero tally (their charges are in the base); the tally
  /// sum is commutative, so the result depends only on the multiset of
  /// charges.
  obs::MetricsSnapshot FinalMetrics() const {
    const SearchTally units = UnitTallies();
    obs::MetricsRegistry search;
    units.ChargeTo(&search, top_k_ > 0);
    TallyHistogram<kWorkerBounds> nodes;
    TallyHistogram<kWorkerBounds> done;
    for (const WorkerSlot& s : slots_) {
      nodes.Observe(s.id, s.nodes);
      done.Observe(s.id, s.units);
    }
    nodes.ChargeTo(search.GetHistogram("miner.worker.nodes", nodes.Bounds()));
    done.ChargeTo(search.GetHistogram("miner.worker.units", done.Bounds()));
    return obs::MergeSnapshots(
        {BaseMetrics(), search.Snapshot(),
         domain_->registry().Snapshot().Since(preamble_end_)});
  }

  /// Every delivered unit's tally summed (resumed units add zero).
  SearchTally UnitTallies() const {
    SearchTally sum;
    for (const UnitOutcome& o : outcomes_) sum.Add(o.tally);
    return sum;
  }

  /// The checkpoint's metrics: base + the tallies of *complete* units only.
  /// Excludes the run-domain tail (not yet final), incomplete units (their
  /// work is not claimed), and the scheduling attribution (thread-count
  /// dependent by design — a checkpoint must be bytewise independent of
  /// how the work was scheduled).
  obs::MetricsSnapshot BoundaryMetrics() const {
    SearchTally done;
    for (const UnitOutcome& o : outcomes_) {
      if (o.complete) done.Add(o.tally);
    }
    return obs::MergeSnapshots({BaseMetrics(), done.Snapshot(top_k_ > 0)});
  }

  /// The prior segment's boundary metrics, unless no segment so far
  /// finished the root scan (total_units == 0): such a checkpoint holds only
  /// a preamble without the root node's tally, and this run's own preamble
  /// (which has it) takes its place.
  obs::MetricsSnapshot BaseMetrics() const {
    return resume_ != nullptr && resume_->total_units > 0
               ? resume_->metrics
               : preamble_end_.Since(obs_start_);
  }

  // ---- Checkpoint/resume (io/checkpoint.h) -----------------------------
  //
  // The depth-0 unit is the unit of completed work. The merger advances the
  // completed frontier as units join and writes a checkpoint when the
  // interval gate is due; a truncated exit writes a final checkpoint at the
  // merged frontier. TPMC serializes the completed units sorted by unit key
  // with each unit's pattern bank (and per-unit counts), so the bytes are
  // independent of completion order and the resume regroups every prior
  // pattern onto its unit. Resuming seeds the banks back and skips the
  // completed subtrees, so interrupted-then-resumed output is
  // byte-identical to an uninterrupted run at any thread count.

  CheckpointRunKey MakeRunKey() const {
    constexpr bool kIsEndpoint =
        std::is_same<PatternT, EndpointPattern>::value;
    CheckpointRunKey key;
    key.db_fingerprint = FingerprintDatabase(db_);
    key.language = kIsEndpoint ? "endpoint" : "coincidence";
    key.algo = baseline_ ? "growth-physical" : "growth";
    key.min_support = options_.min_support;
    key.max_items = options_.max_items;
    key.max_length = options_.max_length;
    key.max_window = options_.max_window;
    // Effective pruning decisions (the baselines run none), not the raw
    // option bits: only toggles that change the search shape block a resume.
    // Coincidence mining ignores validity pruning entirely, so the flag is
    // canonicalized to false there.
    key.pair_pruning = pair_pruning_;
    key.postfix_pruning = postfix_pruning_;
    key.validity_pruning =
        kIsEndpoint && !baseline_ && options_.validity_pruning;
    return key;
  }

  void SeedFromResume() {
    if (resume_ == nullptr) return;
    size_t off = 0;
    uint64_t seeded = 0;
    for (size_t i = 0; i < resume_->completed_units.size(); ++i) {
      ResumeUnit unit;
      unit.key = resume_->completed_units[i];
      const uint64_t n = resume_->unit_pattern_counts[i];
      unit.bank.reserve(n);
      for (uint64_t j = 0; j < n; ++j) {
        const CheckpointPatternRec& rec = resume_->patterns[off++];
        unit.bank.push_back(MinedPattern<PatternT>{
            PatternT(rec.items, rec.offsets), rec.support});
        // Mirror EmitPattern's accounting so a resumed run's memory and
        // guard views match the uninterrupted run's.
        tracker_.Allocate((rec.items.size() + rec.offsets.size()) *
                          sizeof(uint32_t));
        ++seeded;
        patterns_total_.store(seeded, std::memory_order_relaxed);
        slots_[0].guard.NotePattern(seeded);
      }
      orphan_units_.push_back(std::move(unit));
    }
    boundary_elapsed_ = resume_->elapsed_seconds;
    // The unit table is a function of the run key, so a prior segment's
    // count stands until this run's root scan rebuilds it; a checkpoint
    // written before then keeps claiming the prior root tally (BaseMetrics).
    total_units_ = resume_->total_units;
    // Recorded against the flight recorder directly: ckpt bookkeeping must
    // not perturb the obs.flight.events counter the determinism tests merge.
    domain_->recorder().Record("ckpt.resume",
                               resume_->completed_units.size(), seeded);
  }

  Status WriteCheckpointNow() {
    struct DoneUnit {
      uint64_t key;
      const std::vector<MinedPattern<PatternT>>* bank;
    };
    std::vector<DoneUnit> done;
    for (const ResumeUnit& r : orphan_units_) done.push_back({r.key, &r.bank});
    for (size_t i = 0; i < outcomes_.size(); ++i) {
      const UnitOutcome& o = outcomes_[i];
      if (o.delivered && o.complete) done.push_back({units_[i].key, &o.bank});
    }
    // Ascending unit key: completion (and thread-count) independent bytes.
    std::sort(done.begin(), done.end(),
              [](const DoneUnit& a, const DoneUnit& b) {
                return a.key < b.key;
              });
    Checkpoint ckpt;
    ckpt.key = run_key_;
    ckpt.total_units = total_units_;
    size_t npat = 0;
    for (const DoneUnit& d : done) npat += d.bank->size();
    ckpt.completed_units.reserve(done.size());
    ckpt.unit_pattern_counts.reserve(done.size());
    ckpt.patterns.reserve(npat);
    for (const DoneUnit& d : done) {
      ckpt.completed_units.push_back(d.key);
      ckpt.unit_pattern_counts.push_back(d.bank->size());
      for (const MinedPattern<PatternT>& p : *d.bank) {
        CheckpointPatternRec rec;
        rec.support = p.support;
        rec.items.assign(p.pattern.items().begin(), p.pattern.items().end());
        rec.offsets = p.pattern.offsets();
        ckpt.patterns.push_back(std::move(rec));
      }
    }
    ckpt.metrics = BoundaryMetrics();
    ckpt.elapsed_seconds = boundary_elapsed_;
    ckpt.time_budget_seconds = options_.time_budget_seconds;
    last_ckpt_units_ = done.size();
    last_ckpt_patterns_ = npat;
    return ckpt_writer_->Write(ckpt);
  }

  const IntervalDatabase& db_;
  const MinerOptions& options_;
  const bool baseline_;  ///< physical-projection baseline, no pruning
  const SupportCount minsup_;
  const uint64_t top_k_;  ///< 0 = bar off
  // The search floor, max(minsup, bar): read per child, raised rarely.
  std::atomic<SupportCount> bar_;
  bool pair_pruning_ = false;
  bool postfix_pruning_ = false;

  Policy policy_;
  CooccurrenceTable cooc_;
  size_t num_symbols_ = 0;

  // Observability domain the run charges: caller-provided (`tpm mine`) or a
  // private throwaway.
  std::unique_ptr<obs::StatsDomain> owned_domain_;
  obs::StatsDomain* domain_ = nullptr;
  obs::ProgressTracker* progress_ = nullptr;

  /// Worker budgets derived so the crew respects the run's limits: the
  /// remaining wall budget (the deadline is absolute), the whole memory
  /// budget against the shared run account, and the pattern cap against
  /// the shared emission total (EmitPattern claims a slot first).
  GuardLimits MakeWorkerLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    if (limits.time_budget_seconds > 0.0) {
      const double remaining =
          limits.time_budget_seconds - run_timer_.ElapsedSeconds();
      limits.time_budget_seconds = remaining > 1e-9 ? remaining : 1e-9;
    }
    limits.on_stop = [this](StopReason reason) { NoteStop(reason); };
    return limits;
  }

  // The run's one memory account: the build, every worker's arenas and
  // every emitted pattern charge it. Declared before slots_, whose arenas
  // release into it on destruction.
  MemoryTracker tracker_;
  // One per --threads, from the build on; slots_[0] is the calling thread.
  std::deque<WorkerSlot> slots_;

  // --- Scheduler / worker / merger state ---
  WorkScheduler scheduler_;
  DeliveryInbox inbox_;
  std::vector<UnitInfo> units_;
  std::vector<UnitOutcome> outcomes_;
  const std::vector<uint8_t>* root_child_allowed_ = nullptr;
  std::atomic<uint64_t> open_items_{0};
  std::atomic<bool> stop_flag_{false};
  std::atomic<int> first_stop_reason_{0};
  std::atomic<uint64_t> patterns_total_{0};

  // --- Checkpoint/resume state (see the helper block above) ---
  CheckpointWriter* ckpt_writer_ = nullptr;  // not owned; null = off
  const Checkpoint* resume_ = nullptr;       // not owned; null = fresh run
  CheckpointRunKey run_key_;
  std::vector<ResumeUnit> orphan_units_;
  obs::MetricsSnapshot obs_start_;
  obs::MetricsSnapshot preamble_end_;
  uint64_t total_units_ = 0;
  double boundary_elapsed_ = 0.0;
  size_t last_ckpt_units_ = 0;
  size_t last_ckpt_patterns_ = 0;
  WallTimer run_timer_;
  Status ckpt_status_;  // first failed checkpoint write, else OK
};

}  // namespace tpm
