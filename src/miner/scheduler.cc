#include "miner/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/sched_test.h"

namespace tpm {

std::vector<bool> MarkSplittableUnits(const std::vector<uint64_t>& weights,
                                      uint64_t min_spans) {
  if (weights.empty()) return {};
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  const uint64_t mean = total / weights.size();
  // `2 * mean` keeps splitting to genuinely skewed subtrees; the min_spans
  // floor stops tiny databases from splitting everything.
  const uint64_t threshold = std::max<uint64_t>(min_spans, 2 * mean);
  std::vector<bool> splittable;
  splittable.reserve(weights.size());
  for (uint64_t w : weights) splittable.push_back(w >= threshold);
  return splittable;
}

void WorkScheduler::Reset(std::vector<uint64_t> unit_ids) {
  MutexLock lock(&mu_);
  unit_ids_ = std::move(unit_ids);
  unit_cursor_ = 0;
  subs_.clear();
  sub_cursor_ = 0;
}

bool WorkScheduler::TryNext(WorkItem* out) {
  // Tier E seam: the claim boundary is where worker interleavings diverge
  // (util/sched_test.h). Before the lock, never inside it.
  TPM_TEST_YIELD("miner.sched.next");
  MutexLock lock(&mu_);
  if (sub_cursor_ < subs_.size()) {
    *out = subs_[sub_cursor_++];
    return true;
  }
  if (unit_cursor_ < unit_ids_.size()) {
    out->kind = WorkItem::Kind::kUnit;
    out->unit_id = unit_ids_[unit_cursor_++];
    out->sub = nullptr;
    return true;
  }
  return false;
}

bool WorkScheduler::TryNextSub(WorkItem* out) {
  TPM_TEST_YIELD("miner.sched.next");
  MutexLock lock(&mu_);
  if (sub_cursor_ < subs_.size()) {
    *out = subs_[sub_cursor_++];
    return true;
  }
  return false;
}

void WorkScheduler::PushSubs(uint64_t unit_id, const std::vector<void*>& subs) {
  TPM_TEST_YIELD("miner.sched.split");
  MutexLock lock(&mu_);
  for (void* sub : subs) {
    WorkItem item;
    item.kind = WorkItem::Kind::kSub;
    item.unit_id = unit_id;
    item.sub = sub;
    subs_.push_back(item);
  }
}

uint64_t WorkScheduler::units_pending() const {
  MutexLock lock(&mu_);
  return unit_ids_.size() - unit_cursor_;
}

}  // namespace tpm
