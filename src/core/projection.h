// Flat, index-based projection layer shared by the prefix-growth engines.
//
// A projected database is a set of *occurrence states* grouped by sequence.
// Every state has the same shape at a given search-tree node: a fixed
// {item, anchor} core (StateRec) plus a fixed-width auxiliary slice whose
// meaning belongs to the pattern language (endpoint language: the partner
// obligations of the open symbols; coincidence language: the alive-until
// bounds of the last/previous coincidences). Because the aux layout is a
// property of the *node*, not the state, states flatten into two parallel
// arrays indexed by (seq, state_offset, count) spans — no per-state heap
// vectors, no per-child deep copies.
//
// Staging goes into a shared bump Arena that is reset after every node, and
// finalized nodes are exact-size allocations in a per-depth Arena that
// rewinds when the search leaves the subtree. Byte accounting is exact (the
// arenas charge their MemoryTracker per block). A builder owns no heap
// memory: Finalize borrows its context's FinalizeScratch, bounded by one
// bucket.
//
// Lifetimes: Push() during the parent scan, then Finalize() once per bucket
// (all buckets of a node finalize before the engine recurses), then the
// engine resets the staging arena. The finalized NodeProjection view stays
// valid until the owning depth arena rewinds past it.

#pragma once


#include <cstdint>
#include <cstring>
#include <deque>
#include <type_traits>
#include <vector>

#include "core/validate.h"
#include "util/arena.h"
#include "util/memory.h"

namespace tpm {

/// Sentinel item/anchor of the root state that has matched nothing yet.
constexpr uint32_t kNoStateItem = ~0u;

/// The fixed core of one occurrence state.
struct StateRec {
  uint32_t item = kNoStateItem;    ///< last matched data item
  uint32_t anchor = kNoStateItem;  ///< first matched slice/segment (windowing)
};

inline bool operator==(const StateRec& a, const StateRec& b) {
  return a.item == b.item && a.anchor == b.anchor;
}

/// One sequence's contiguous run of states within a NodeProjection.
struct SeqSpan {
  uint32_t seq = 0;     ///< sequence index in the database
  uint32_t offset = 0;  ///< first state index in the node's flat arrays
  uint32_t count = 0;   ///< number of states (>= 1)
};

/// \brief Immutable view of one node's finalized projected database.
///
/// `spans` are strictly increasing by seq and index contiguously into
/// `states` / `aux` (ValidateProjection checks exactly this). Support of the
/// node's pattern is `num_spans` by construction.
///
/// Lifetime: a view records the depth arena that holds its storage and that
/// arena's generation at Finalize time. The view dies the moment the arena
/// rewinds — CheckAlive() (debug builds) and ValidateProjection assert this,
/// and under ASan the storage itself is poisoned, so a stale view aborts
/// rather than reading recycled records.
struct NodeProjection {
  const SeqSpan* spans = nullptr;
  uint32_t num_spans = 0;
  const StateRec* states = nullptr;  ///< flat, span-grouped
  const uint32_t* aux = nullptr;     ///< `stride` words per state
  uint32_t stride = 0;
  size_t num_states = 0;
  const Arena* arena = nullptr;  ///< depth arena owning the storage
  uint64_t generation = 0;       ///< arena->generation() at Finalize

  /// True while the backing storage is guaranteed live.
  bool alive() const { return arena->generation() == generation; }

  /// Debug assertion that the view has not outlived an arena rewind. The
  /// growth engine calls this at node entry; it compiles out under NDEBUG.
  void CheckAlive() const { TPM_DCHECK(alive()); }

  const uint32_t* aux_of(size_t state_index) const {
    TPM_DCHECK(alive());
    return aux + state_index * stride;
  }
};

/// \brief ProjectionBuilder::Finalize's working set, one per execution
/// context and reused by every bucket the context finalizes.
///
/// Heap, outside MemoryTracker: it grows to the largest bucket one Finalize
/// handled (a pointer per staged state of one bucket, plus one multi-state
/// span gathered for select) and keeps that capacity. Nothing a finalized
/// view points to lives here.
struct FinalizeScratch {
  /// The current span's staged records, in push order.
  std::vector<const uint32_t*> span;
  /// A multi-state span gathered into contiguous arrays for select.
  std::vector<StateRec> recs;
  std::vector<uint32_t> aux;
  /// select's output for the current span.
  std::vector<uint32_t> keep;
  /// Every kept state's staged record, in output order.
  std::vector<const uint32_t*> kept;
};

/// \brief The arena set backing projection for one execution context.
///
/// One shared staging arena (reset after every node) plus one finalized-node
/// arena per search depth (marked at node entry, rewound at node exit, so a
/// subtree's projections vanish in O(1)), and the context's Finalize
/// scratch. Blocks are retained for reuse; `total_allocated_bytes()` is
/// therefore monotone and equals the tracker charge attributable to
/// projection storage.
class ProjectionArenas {
 public:
  explicit ProjectionArenas(MemoryTracker* tracker)
      : tracker_(tracker), staging_(tracker) {}

  Arena& staging() { return staging_; }

  FinalizeScratch& finalize_scratch() { return finalize_scratch_; }

  /// The arena holding finalized projections of nodes at depth `d` (root
  /// spans live at depth 0, its children at depth 1, ...). Shallow arenas
  /// carry a whole fan-out of sibling projections at once and get full-size
  /// blocks; deep arenas hold one thin chain's worth at a time and start
  /// small so an idle tail of depths does not pin a block each.
  Arena& depth(uint32_t d) {
    while (depth_.size() <= d) {
      const size_t min_block =
          depth_.size() <= 2 ? Arena::kDefaultMinBlockBytes : size_t{8} << 10;
      depth_.emplace_back(tracker_, min_block);
    }
    return depth_[d];
  }

  /// Total mapped bytes across all arenas (== their tracker charges).
  size_t total_allocated_bytes() const {
    size_t total = staging_.allocated_bytes();
    for (const Arena& a : depth_) total += a.allocated_bytes();
    return total;
  }

  /// Total blocks mapped across all arenas.
  size_t total_blocks() const {
    size_t total = staging_.num_blocks();
    for (const Arena& a : depth_) total += a.num_blocks();
    return total;
  }

 private:
  MemoryTracker* tracker_;
  Arena staging_;
  std::deque<Arena> depth_;  // deque: arenas are immovable once created
  FinalizeScratch finalize_scratch_;
};

/// \brief Builds one child bucket's projected database during the parent
/// scan, then compacts it into a NodeProjection.
///
/// States must be pushed grouped by sequence with nondecreasing seq — the
/// scan iterates parent spans in order, so this holds by construction and is
/// asserted in debug builds (TPM_DCHECK; see also ValidateProjection).
///
/// A builder holds no heap memory (staging lives in the staging arena,
/// Finalize's working set in the context's FinalizeScratch), so it is
/// trivially copyable and a bucket store can be a plain vector.
class ProjectionBuilder {
 public:
  ProjectionBuilder() = default;

  void Init(uint32_t stride, ProjectionArenas* arenas, uint32_t depth) {
    stride_ = stride;
    arenas_ = arenas;
    depth_ = depth;
    staged_states_ = 0;
    span_count_ = 0;
    have_seq_ = false;
    head_ = nullptr;
    tail_ = nullptr;
  }

  /// Appends a state for `seq` and returns its aux slice (stride words) for
  /// the caller to fill. The pointer is valid until the next Push.
  uint32_t* Push(uint32_t seq, uint32_t item, uint32_t anchor) {
    // Within a bucket, pushes arrive grouped by sequence (the parent scan
    // walks spans in order), so the chunked record stream stays
    // span-contiguous in push order. The span directory is reconstructed
    // from the seq word at Finalize — staging a directory entry per
    // (bucket, seq) would cost more than the word does on the dominant
    // one-state-per-span scans.
    if (!have_seq_ || last_seq_ != seq) {
      TPM_DCHECK(!have_seq_ || seq > last_seq_);
      have_seq_ = true;
      last_seq_ = seq;
      ++span_count_;
    }
    ++staged_states_;
    if (tail_ == nullptr || tail_->count == tail_->capacity) {
      NewStagedChunk();
    }
    uint32_t* rec = ChunkPayload(tail_) + size_t{tail_->count} * (3 + stride_);
    ++tail_->count;
    rec[0] = seq;
    rec[1] = item;
    rec[2] = anchor;
    return stride_ == 0 ? DummyAux() : rec + 3;
  }

  /// Appends `later`'s staged states after this builder's, leaving `later`
  /// empty. `later` staged the same node's child for sequences after all of
  /// this builder's (a later span range of one scan), with the same stride.
  /// Its chunks stay in its own staging arena, which must not be reset
  /// before this builder finalizes; nothing is pushed after a join.
  void Join(ProjectionBuilder* later) {
    TPM_DCHECK(later->stride_ == stride_);
    if (later->head_ == nullptr) return;
    TPM_DCHECK(!have_seq_ || ChunkPayload(later->head_)[0] > last_seq_);
    if (tail_ == nullptr) {
      head_ = later->head_;
    } else {
      tail_->next = later->head_;
    }
    tail_ = later->tail_;
    staged_states_ += later->staged_states_;
    span_count_ += later->span_count_;
    last_seq_ = later->last_seq_;
    have_seq_ = true;
    later->head_ = nullptr;
    later->tail_ = nullptr;
    later->staged_states_ = 0;
    later->span_count_ = 0;
    later->have_seq_ = false;
  }

  /// Makes Finalize use `arenas` (its scratch and its depth arena) instead
  /// of the set the builder staged into; the staged chunks stay put.
  void Rebind(ProjectionArenas* arenas) { arenas_ = arenas; }

  /// Distinct sequences staged so far — the bucket's support.
  uint32_t num_spans() const { return span_count_; }

  /// States staged since Init or the last Finalize.
  size_t num_staged_states() const { return staged_states_; }

  /// One staged sequence's states as contiguous arrays, valid only inside
  /// the `select` call that receives it.
  struct SpanView {
    uint32_t seq = 0;
    const StateRec* recs = nullptr;
    const uint32_t* aux = nullptr;  // stride words per state
    uint32_t count = 0;
    uint32_t stride = 0;
  };

  /// Compacts kept states into final storage and returns the view.
  ///
  /// `select(view, keep)` appends the *local* indices of the states to keep,
  /// in the desired output order, to `keep` (pre-cleared per span). Spans
  /// whose selection comes back empty are dropped.
  ///
  /// One walk over the staged chunks: a one-state span goes to `select`
  /// straight from its staged record; only a multi-state span is gathered
  /// into the context's scratch first. Each kept state's staged record is
  /// remembered, and once the total is known the kept states are written
  /// once, into exact-size arrays in the depth arena.
  template <typename SelectFn>
  const NodeProjection& Finalize(SelectFn&& select) {
    FinalizeScratch& fs = arenas_->finalize_scratch();
    Arena& fin = arenas_->depth(depth_);
    SeqSpan* const out_spans = fin.AllocateArray<SeqSpan>(span_count_);
    uint32_t spans_out = 0;
    fs.kept.clear();
    fs.span.clear();

    // Selects the states staged for one sequence (fs.span) and records the
    // kept ones.
    auto select_span = [&] {
      const uint32_t n = static_cast<uint32_t>(fs.span.size());
      const uint32_t seq = fs.span[0][0];
      StateRec one;
      SpanView v;
      if (n == 1) {
        const uint32_t* const w = fs.span[0];
        one = StateRec{w[1], w[2]};
        v = SpanView{seq, &one, w + 3, 1, stride_};
      } else {
        fs.recs.resize(n);
        fs.aux.resize(size_t{n} * stride_);
        for (uint32_t i = 0; i < n; ++i) {
          const uint32_t* const w = fs.span[i];
          fs.recs[i] = StateRec{w[1], w[2]};
          if (stride_ != 0) {
            std::memcpy(fs.aux.data() + size_t{i} * stride_, w + 3,
                        stride_ * sizeof(uint32_t));
          }
        }
        v = SpanView{seq, fs.recs.data(), fs.aux.data(), n, stride_};
      }
      fs.keep.clear();
      select(v, &fs.keep);
      if (!fs.keep.empty()) {
        out_spans[spans_out++] =
            SeqSpan{seq, static_cast<uint32_t>(fs.kept.size()),
                    static_cast<uint32_t>(fs.keep.size())};
        for (const uint32_t idx : fs.keep) {
          TPM_DCHECK(idx < n);
          fs.kept.push_back(fs.span[idx]);
        }
      }
      fs.span.clear();
    };

    const uint32_t rec_words = 3 + stride_;
    for (StagedChunk* c = head_; c != nullptr; c = c->next) {
      const uint32_t* words = ChunkPayload(c);
      for (uint32_t r = 0; r < c->count; ++r, words += rec_words) {
        if (!fs.span.empty() && fs.span[0][0] != words[0]) select_span();
        fs.span.push_back(words);
      }
    }
    if (!fs.span.empty()) select_span();

    const size_t total = fs.kept.size();
    StateRec* const out_recs = fin.AllocateArray<StateRec>(total);
    uint32_t* const out_aux = fin.AllocateArray<uint32_t>(total * stride_);
    for (size_t i = 0; i < total; ++i) {
      const uint32_t* const w = fs.kept[i];
      out_recs[i] = StateRec{w[1], w[2]};
      if (stride_ != 0) {
        std::memcpy(out_aux + i * stride_, w + 3, stride_ * sizeof(uint32_t));
      }
    }

    // Drop the staging stream; its arena memory is reclaimed by the engine's
    // staging Reset after all buckets finalize.
    head_ = nullptr;
    tail_ = nullptr;
    span_count_ = 0;
    staged_states_ = 0;
    have_seq_ = false;

    view_.spans = out_spans;
    view_.num_spans = spans_out;
    view_.states = out_recs;
    view_.aux = out_aux;
    view_.stride = stride_;
    view_.num_states = total;
    // Stamp the lifetime contract: the view is valid exactly until the depth
    // arena rewinds (the engine rewinds it when the subtree exits).
    view_.arena = &fin;
    view_.generation = fin.generation();
    return view_;
  }

  /// Finalize keeping every staged state in push order (root projections).
  const NodeProjection& FinalizeKeepAll() {
    return Finalize([](const SpanView& v, std::vector<uint32_t>* keep) {
      for (uint32_t i = 0; i < v.count; ++i) keep->push_back(i);
    });
  }

  const NodeProjection& view() const { return view_; }

 private:
  static uint32_t* DummyAux() {
    // Shared sink for stride-0 nodes; callers never write through it.
    static uint32_t dummy = 0;
    return &dummy;
  }

  // Staging stores records of (3 + stride) words — {seq, item,
  // anchor, aux...} — in a linked list of arena chunks. Chunks are never
  // copied or abandoned (a doubling vector would abandon roughly its own
  // size in dead spans), and capacities double only up to kMaxChunkRecords,
  // so staging-arena waste is bounded by one small unfilled tail chunk per
  // bucket.
  struct StagedChunk {
    StagedChunk* next;
    uint32_t count;     // records written
    uint32_t capacity;  // records available
  };

  static uint32_t* ChunkPayload(StagedChunk* c) {
    return reinterpret_cast<uint32_t*>(c + 1);
  }

  static constexpr uint32_t kMaxChunkRecords = 64;

  void NewStagedChunk() {
    uint32_t cap = tail_ == nullptr ? 8 : tail_->capacity * 2;
    if (cap > kMaxChunkRecords) cap = kMaxChunkRecords;
    void* mem = arenas_->staging().Allocate(
        sizeof(StagedChunk) + size_t{cap} * (3 + stride_) * sizeof(uint32_t),
        alignof(StagedChunk));
    auto* c = static_cast<StagedChunk*>(mem);
    c->next = nullptr;
    c->count = 0;
    c->capacity = cap;
    if (tail_ == nullptr) {
      head_ = c;
    } else {
      tail_->next = c;
    }
    tail_ = c;
  }

  uint32_t stride_ = 0;
  ProjectionArenas* arenas_ = nullptr;
  uint32_t depth_ = 0;
  size_t staged_states_ = 0;

  // Staging: the chunked record stream plus the span/ordering
  // counters that replace a staged span directory.
  StagedChunk* head_ = nullptr;
  StagedChunk* tail_ = nullptr;
  uint32_t span_count_ = 0;
  uint32_t last_seq_ = 0;
  bool have_seq_ = false;

  NodeProjection view_;
};

static_assert(std::is_trivially_destructible_v<ProjectionBuilder>,
              "a bucket's builder must own no heap memory");

}  // namespace tpm
