#include "miner/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/sched_test.h"

namespace tpm {

void MarkSplittableUnits(std::vector<WorkUnit>* units, uint64_t min_spans) {
  if (units->empty()) return;
  uint64_t total = 0;
  for (const WorkUnit& u : *units) total += u.weight;
  const uint64_t mean = total / units->size();
  // `2 * mean` keeps splitting to genuinely skewed subtrees; the min_spans
  // floor stops tiny databases from splitting everything.
  const uint64_t threshold = std::max<uint64_t>(min_spans, 2 * mean);
  for (WorkUnit& u : *units) u.splittable = u.weight >= threshold;
}

void WorkScheduler::Reset(std::vector<WorkUnit> units) {
  MutexLock lock(&mu_);
  units_ = std::move(units);
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
  if (unit_cursor_ < units_.size()) {
    const WorkUnit& u = units_[unit_cursor_++];
    out->kind = WorkItem::Kind::kUnit;
    out->unit_id = u.id;
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
  return units_.size() - unit_cursor_;
}

}  // namespace tpm
