// Bump-pointer arena for the mining hot paths.
//
// Projection data has a strict stack lifetime (a node's children live exactly
// as long as the recursion into them), which a general-purpose allocator
// cannot exploit. The Arena bumps through fixed-size blocks (oversized
// requests get a dedicated block), charges every block to a MemoryTracker
// the moment it is mapped (so logical accounting is exact, not a
// per-container capacity estimate), and supports O(1) mark/rewind so a whole
// subtree's allocations vanish when the search returns. Fixed blocks keep
// the mapped-vs-used slack bounded by one block; a geometric chain would
// map roughly twice its high-water mark.
//
// Blocks are retained (never freed) across Reset/Rewind and reused by later
// allocations: the arena grows to the high-water mark of its workload and
// stays there, which keeps the tracker monotone per arena and avoids malloc
// churn in the search loop. All memory is released in the destructor.
//
// Lifetime enforcement (Tier D, docs/STATIC_ANALYSIS.md): under
// AddressSanitizer every byte the arena holds but has not handed out is
// poisoned — fresh blocks entirely, reclaimed ranges on Rewind/Reset — so a
// read through a stale pointer aborts with a use-after-poison report instead
// of silently returning recycled records. Independently, the arena keeps a
// generation counter that Rewind/Reset bump; consumers with arena-backed
// views (NodeProjection, see core/projection.h) stamp the generation at
// build time and TPM_DCHECK it on access, which catches use-after-rewind in
// plain Debug builds with no sanitizer at all. Both layers compile to
// nothing in release builds without ASan.

#pragma once


#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/memory.h"
#include "util/sched_test.h"

// ASan detection: GCC defines __SANITIZE_ADDRESS__; Clang exposes the
// feature test. TPM_ASAN_ENABLED gates the manual poisoning below.
#if defined(__SANITIZE_ADDRESS__)
#define TPM_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TPM_ASAN_ENABLED 1
#endif
#endif
#ifndef TPM_ASAN_ENABLED
#define TPM_ASAN_ENABLED 0
#endif

#if TPM_ASAN_ENABLED
#include <sanitizer/asan_interface.h>
#define TPM_ASAN_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define TPM_ASAN_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define TPM_ASAN_POISON(addr, size) ((void)(addr), (void)(size))
#define TPM_ASAN_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace tpm {

/// \brief Bump-pointer allocator with mark/rewind and exact byte accounting.
///
/// Thread-compatible: one arena belongs to one miner run.
class Arena {
 public:
  static constexpr size_t kDefaultMinBlockBytes = size_t{1} << 16;  // 64 KiB

  explicit Arena(MemoryTracker* tracker = nullptr,
                 size_t min_block_bytes = kDefaultMinBlockBytes)
      : tracker_(tracker),
        block_bytes_(min_block_bytes < 64 ? 64 : min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
#if TPM_ASAN_ENABLED
    // Hand every block back to the allocator unpoisoned: delete[] of a
    // user-poisoned range is undefined under the manual-poisoning contract.
    for (Block& b : blocks_) TPM_ASAN_UNPOISON(b.data.get(), b.size);
#endif
    if (tracker_ != nullptr) tracker_->Release(allocated_);
  }

  /// Returns `bytes` of storage aligned to `align` (a power of two no larger
  /// than alignof(std::max_align_t)). Zero-byte requests return a distinct
  /// valid pointer without consuming space.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) {
      alignas(std::max_align_t) static char dummy;
      return &dummy;
    }
    size_t off = AlignUp(offset_, align);
    while (block_ < blocks_.size() && off + bytes > blocks_[block_].size) {
      // The remainder of this block is wasted until the next Reset/Rewind.
      ++block_;
      off = 0;
    }
    if (block_ == blocks_.size()) {
      NewBlock(bytes);
      off = 0;
    }
    char* ptr = blocks_[block_].data.get() + off;
    offset_ = off + bytes;
    used_ += bytes;
    if (used_ > used_high_water_) used_high_water_ = used_;
    // Alignment gaps stay poisoned: only the bytes handed out are legal.
    TPM_ASAN_UNPOISON(ptr, bytes);
    return ptr;
  }

  /// Typed array allocation; T must be trivially copyable (the arena never
  /// runs destructors).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Arena storage is never destructed");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Grows the most recent allocation in place: succeeds iff `ptr +
  /// old_bytes` is the current bump position and the active block has room
  /// for the extra bytes. On success the allocation's size becomes
  /// `new_bytes` with its data untouched and no new span is consumed.
  bool TryExtend(const void* ptr, size_t old_bytes, size_t new_bytes) {
    if (ptr == nullptr || new_bytes < old_bytes || block_ >= blocks_.size()) {
      return false;
    }
    const Block& b = blocks_[block_];
    if (static_cast<const char*>(ptr) + old_bytes != b.data.get() + offset_) {
      return false;
    }
    const size_t delta = new_bytes - old_bytes;
    if (offset_ + delta > b.size) return false;
    TPM_ASAN_UNPOISON(b.data.get() + offset_, delta);
    offset_ += delta;
    used_ += delta;
    if (used_ > used_high_water_) used_high_water_ = used_;
    return true;
  }

  /// Shrinks the most recent allocation in place, the mirror of TryExtend:
  /// succeeds iff `ptr + old_bytes` is the current bump position and
  /// `new_bytes <= old_bytes`. The tail past `new_bytes` goes back to the
  /// arena for the next allocation (poisoned under ASan meanwhile); the
  /// kept bytes are untouched. Any other pointer leaves the arena as it is.
  bool TryShrink(const void* ptr, size_t old_bytes, size_t new_bytes) {
    if (ptr == nullptr || new_bytes > old_bytes || block_ >= blocks_.size()) {
      return false;
    }
    const Block& b = blocks_[block_];
    if (static_cast<const char*>(ptr) + old_bytes != b.data.get() + offset_) {
      return false;
    }
    const size_t delta = old_bytes - new_bytes;
    offset_ -= delta;
    used_ -= delta;
    TPM_ASAN_POISON(b.data.get() + offset_, delta);
    return true;
  }

  /// A rewind point. Valid until the arena is destroyed; rewinding to a mark
  /// taken *after* allocations that were already rewound is undefined.
  struct Mark {
    uint32_t block = 0;
    size_t offset = 0;
    size_t used = 0;
  };

  Mark mark() const { return Mark{static_cast<uint32_t>(block_), offset_, used_}; }

  /// Releases everything allocated since `m` in O(1) (O(active blocks) under
  /// ASan, which poisons the reclaimed ranges). Blocks are retained for
  /// reuse, so tracker charges are unchanged. Bumps the generation: views
  /// stamped with an earlier generation() are dead from here on, even when
  /// their bytes happened to lie below the mark — a rewound arena makes no
  /// liveness promises to spans it did not just hand out.
  void Rewind(const Mark& m) {
    // Tier E seam: the generation bump is the moment every earlier view of
    // this arena dies — exactly where a racing reader would observe stale
    // spans (util/sched_test.h).
    TPM_TEST_YIELD("arena.rewind");
#if TPM_ASAN_ENABLED
    for (size_t b = m.block; b < blocks_.size() && b <= block_; ++b) {
      const size_t keep = b == m.block ? m.offset : 0;
      TPM_ASAN_POISON(blocks_[b].data.get() + keep, blocks_[b].size - keep);
    }
#endif
    ++generation_;
    block_ = m.block;
    offset_ = m.offset;
    used_ = m.used;
  }

  /// Rewinds to empty, retaining blocks for reuse.
  void Reset() { Rewind(Mark{}); }

  /// Monotone count of Rewind/Reset calls. Arena-backed views record it at
  /// creation and treat any later value as "my storage may be recycled";
  /// NodeProjection::CheckAlive debug-asserts exactly that.
  uint64_t generation() const { return generation_; }

  /// Live bump-allocated bytes (requested sizes, excluding block slack).
  size_t used_bytes() const { return used_; }

  /// High-water mark of used_bytes() over the arena's lifetime.
  size_t used_high_water() const { return used_high_water_; }

  /// Total bytes of mapped blocks — exactly what the tracker was charged.
  size_t allocated_bytes() const { return allocated_; }

  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  static size_t AlignUp(size_t v, size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  void NewBlock(size_t min_bytes) {
    size_t size = block_bytes_;
    if (size < min_bytes) size = min_bytes;
    blocks_.push_back(Block{std::unique_ptr<char[]>(new char[size]), size});
    TPM_ASAN_POISON(blocks_.back().data.get(), size);
    allocated_ += size;
    if (tracker_ != nullptr) tracker_->Allocate(size);
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }

  MemoryTracker* tracker_ = nullptr;
  std::vector<Block> blocks_;
  size_t block_ = 0;   // active block index; == blocks_.size() when none
  size_t offset_ = 0;  // bump offset within the active block
  size_t used_ = 0;
  size_t used_high_water_ = 0;
  size_t allocated_ = 0;
  size_t block_bytes_ = kDefaultMinBlockBytes;
  uint64_t generation_ = 0;
};

/// \brief Minimal growable array on an Arena for trivially copyable types.
///
/// Growth extends in place when the vector owns the arena's most recent
/// allocation; otherwise it allocates a fresh 2x span and memcpys, and the
/// abandoned span is reclaimed by the owning arena's next Reset/Rewind —
/// which suits staging buffers with node-scoped lifetimes. Not a general
/// std::vector replacement: no destructors, no erase, pointer stability only
/// between growths.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector requires trivially copyable elements");

 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void push_back(const T& v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Appends `n` default-initialized slots and returns a pointer to the
  /// first. The pointer is valid until the next growth.
  T* extend(size_t n) {
    if (size_ + n > capacity_) Grow(size_ + n);
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }

 private:
  void Grow(size_t min_capacity) {
    size_t cap = capacity_ == 0 ? 8 : capacity_ * 2;
    if (cap < min_capacity) cap = min_capacity;
    // When this vector made the arena's most recent allocation, extend it in
    // place: no copy and no abandoned span.
    if (arena_->TryExtend(data_, capacity_ * sizeof(T), cap * sizeof(T))) {
      capacity_ = cap;
      return;
    }
    T* nd = arena_->AllocateArray<T>(cap);
    if (size_ != 0) std::memcpy(nd, data_, size_ * sizeof(T));
    data_ = nd;
    capacity_ = cap;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace tpm
