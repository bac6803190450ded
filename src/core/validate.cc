#include "core/validate.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/projection.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace tpm {

namespace {

// One Status error, prefixed with the failing object for `tpm check` output.
Status Fail(const std::string& what, const std::string& detail) {
  obs::MetricsRegistry::Global().GetCounter("validate.failures")->Increment();
  return Status::Corruption(what + ": " + detail);
}

void CountCheck() {
  obs::MetricsRegistry::Global().GetCounter("validate.checks")->Increment();
}

}  // namespace

Status ValidateDatabase(const IntervalDatabase& db) {
  CountCheck();
  TPM_RETURN_NOT_OK(db.Validate());
  const size_t num_names = db.dict().size();
  if (num_names == 0) return Status::OK();  // programmatic db, ids are opaque
  for (size_t s = 0; s < db.size(); ++s) {
    for (const Interval& iv : db[s].intervals()) {
      if (iv.event >= num_names) {
        return Fail("sequence " + std::to_string(s),
                    "event id " + std::to_string(iv.event) +
                        " has no dictionary entry (dictionary holds " +
                        std::to_string(num_names) + " symbols)");
      }
    }
  }
  return Status::OK();
}

Status ValidateEndpointSequence(const EndpointSequence& es) {
  CountCheck();
  const uint32_t items = es.num_items();
  const uint32_t slices = es.num_slices();
  if (items % 2 != 0) {
    return Fail("endpoint sequence",
                "odd item count " + std::to_string(items) +
                    " (endpoints must pair)");
  }
  if (slices == 0 && items != 0) {
    return Fail("endpoint sequence", "items without slices");
  }
  uint32_t covered = 0;
  for (uint32_t s = 0; s < slices; ++s) {
    const uint32_t begin = es.slice_begin(s);
    const uint32_t end = es.slice_end(s);
    if (begin != covered || end <= begin || end > items) {
      return Fail("endpoint slice " + std::to_string(s),
                  "offsets not a partition into non-empty ranges");
    }
    covered = end;
    if (s + 1 < slices && es.slice_time(s) >= es.slice_time(s + 1)) {
      return Fail("endpoint slice " + std::to_string(s),
                  "slice times not strictly increasing");
    }
    for (uint32_t i = begin; i < end; ++i) {
      if (es.item_slice(i) != s) {
        return Fail("endpoint item " + std::to_string(i),
                    "item_slice disagrees with the slice offsets");
      }
      if (i + 1 < end && es.item(i) >= es.item(i + 1)) {
        return Fail("endpoint slice " + std::to_string(s),
                    "in-slice codes not sorted and duplicate-free");
      }
    }
  }
  if (covered != items) {
    return Fail("endpoint sequence", "slice offsets do not cover all items");
  }
  for (uint32_t i = 0; i < items; ++i) {
    const uint32_t p = es.partner(i);
    if (p >= items) {
      return Fail("endpoint item " + std::to_string(i),
                  "partner index out of range");
    }
    if (p == i || es.partner(p) != i) {
      return Fail("endpoint item " + std::to_string(i),
                  "partner index is not an involution");
    }
    const EndpointCode code = es.item(i);
    if (EndpointEvent(code) != EndpointEvent(es.item(p)) ||
        IsFinish(code) == IsFinish(es.item(p))) {
      return Fail("endpoint item " + std::to_string(i),
                  "partner is not the opposite endpoint of the same symbol");
    }
    if (!IsFinish(code) && es.item_slice(p) < es.item_slice(i)) {
      return Fail("endpoint item " + std::to_string(i),
                  "start endpoint paired with an earlier finish");
    }
  }
  return Status::OK();
}

Status ValidateCoincidenceSequence(const CoincidenceSequence& cs) {
  CountCheck();
  const uint32_t items = cs.num_items();
  const uint32_t segments = cs.num_segments();
  uint32_t covered = 0;
  for (uint32_t s = 0; s < segments; ++s) {
    const uint32_t begin = cs.seg_begin(s);
    const uint32_t end = cs.seg_end(s);
    if (begin != covered || end <= begin || end > items) {
      return Fail("coincidence segment " + std::to_string(s),
                  "offsets not a partition into non-empty ranges");
    }
    covered = end;
    if (cs.seg_start_time(s) > cs.seg_end_time(s)) {
      return Fail("coincidence segment " + std::to_string(s),
                  "segment start time after its end time");
    }
    if (s + 1 < segments && cs.seg_end_time(s) > cs.seg_start_time(s + 1)) {
      return Fail("coincidence segment " + std::to_string(s),
                  "segment times overlap the next segment");
    }
    for (uint32_t i = begin; i < end; ++i) {
      if (cs.item_segment(i) != s) {
        return Fail("coincidence item " + std::to_string(i),
                    "item_segment disagrees with the segment offsets");
      }
      if (i + 1 < end && cs.item(i) >= cs.item(i + 1)) {
        return Fail("coincidence segment " + std::to_string(s),
                    "in-segment symbols not sorted and duplicate-free");
      }
    }
  }
  if (covered != items) {
    return Fail("coincidence sequence",
                "segment offsets do not cover all items");
  }
  // alive_until(i) is the last segment of item i's interval. Interval
  // identity comes from the segments alone (coincidence.h): the run goes on
  // into segment s + 1 when that segment meets s in time and holds the same
  // symbol. So each item must agree with its run successor there, or end
  // its run at its own segment; by induction from the last segment, every
  // alive_until is its run's last segment, the bound the miners' O(1)
  // run-continuity checks rely on.
  for (uint32_t i = 0; i < items; ++i) {
    const uint32_t s = cs.item_segment(i);
    uint32_t run_end = s;
    if (s + 1 < segments && cs.seg_end_time(s) == cs.seg_start_time(s + 1)) {
      const uint32_t next = cs.FindInSegment(s + 1, cs.item(i));
      if (next != CoincidenceSequence::kNotFoundItem) {
        run_end = cs.alive_until(next);
      }
    }
    if (cs.alive_until(i) != run_end) {
      return Fail("coincidence item " + std::to_string(i),
                  "alive_until " + std::to_string(cs.alive_until(i)) +
                      " is not the last segment of its interval (" +
                      std::to_string(run_end) + ")");
    }
  }
  return Status::OK();
}

Status ValidatePattern(const EndpointPattern& pattern) {
  CountCheck();
  TPM_RETURN_NOT_OK(pattern.Validate());
  if (!pattern.IsComplete()) {
    return Fail("endpoint pattern",
                "incomplete (an opened symbol is never closed); miners only "
                "report complete patterns");
  }
  return Status::OK();
}

Status ValidatePattern(const CoincidencePattern& pattern) {
  CountCheck();
  return pattern.Validate();
}

Status ValidateProjection(const NodeProjection& proj) {
  CountCheck();
  if (!proj.alive()) {
    return Fail("projection",
                "backing arena rewound since finalize (generation " +
                    std::to_string(proj.generation) + " vs " +
                    std::to_string(proj.arena->generation()) +
                    "); the view outlived its subtree");
  }
  uint32_t covered = 0;
  uint32_t last_seq = 0;
  for (uint32_t i = 0; i < proj.num_spans; ++i) {
    const SeqSpan& sp = proj.spans[i];
    if (i > 0 && sp.seq <= last_seq) {
      return Fail("projection span " + std::to_string(i),
                  "sequences not strictly increasing (seq " +
                      std::to_string(sp.seq) + " after " +
                      std::to_string(last_seq) + ")");
    }
    last_seq = sp.seq;
    if (sp.count == 0) {
      return Fail("projection span " + std::to_string(i),
                  "empty span for sequence " + std::to_string(sp.seq));
    }
    if (sp.offset != covered) {
      return Fail("projection span " + std::to_string(i),
                  "offset " + std::to_string(sp.offset) +
                      " breaks contiguity (expected " +
                      std::to_string(covered) + ")");
    }
    covered += sp.count;
  }
  if (covered != proj.num_states) {
    return Fail("projection",
                "span counts sum to " + std::to_string(covered) +
                    " but num_states is " + std::to_string(proj.num_states));
  }
  if (proj.num_states != 0 && proj.states == nullptr) {
    return Fail("projection", "states array missing");
  }
  if (proj.num_states != 0 && proj.stride != 0 && proj.aux == nullptr) {
    return Fail("projection", "aux array missing despite nonzero stride");
  }
  return Status::OK();
}

Status ValidateEndpointDatabase(const EndpointDatabase& edb) {
  for (size_t s = 0; s < edb.size(); ++s) {
    TPM_RETURN_NOT_OK(ValidateEndpointSequence(edb[s]).WithContext(
        "endpoint view of sequence " + std::to_string(s)));
  }
  return Status::OK();
}

Status ValidateCoincidenceDatabase(const CoincidenceDatabase& cdb) {
  for (size_t s = 0; s < cdb.size(); ++s) {
    TPM_RETURN_NOT_OK(ValidateCoincidenceSequence(cdb[s]).WithContext(
        "coincidence view of sequence " + std::to_string(s)));
  }
  return Status::OK();
}

Status ValidateDatabaseDeep(const IntervalDatabase& db) {
  TPM_RETURN_NOT_OK(ValidateDatabase(db));
  TPM_RETURN_NOT_OK(ValidateEndpointDatabase(EndpointDatabase::FromDatabase(db)));
  TPM_RETURN_NOT_OK(
      ValidateCoincidenceDatabase(CoincidenceDatabase::FromDatabase(db)));
  return Status::OK();
}

namespace internal {

EndpointPattern PrefixOf(const EndpointPattern& pattern) {
  const uint32_t items = pattern.num_items();
  if (items < 2) return EndpointPattern();
  // FIFO-pair the endpoints (repeated symbols pair first-open first-close,
  // the same convention as ToCanonicalIntervals), then drop the last-opened
  // interval: the result is the complete enumeration parent.
  std::unordered_map<EventId, std::deque<uint32_t>> open;
  uint32_t last_start = 0, last_finish = 0;
  bool found = false;
  for (uint32_t i = 0; i < items; ++i) {
    const EndpointCode code = pattern.item(i);
    const EventId event = EndpointEvent(code);
    if (!IsFinish(code)) {
      open[event].push_back(i);
      continue;
    }
    auto it = open.find(event);
    if (it == open.end() || it->second.empty()) return EndpointPattern();
    const uint32_t start = it->second.front();
    it->second.pop_front();
    if (!found || start >= last_start) {
      last_start = start;
      last_finish = i;
      found = true;
    }
  }
  if (!found) return EndpointPattern();
  std::vector<std::vector<EndpointCode>> slices;
  for (uint32_t s = 0; s < pattern.num_slices(); ++s) {
    std::vector<EndpointCode> slice;
    for (uint32_t i = pattern.slice_begin(s); i < pattern.slice_end(s); ++i) {
      if (i == last_start || i == last_finish) continue;
      slice.push_back(pattern.item(i));
    }
    if (!slice.empty()) slices.push_back(std::move(slice));
  }
  return EndpointPattern(slices);
}

}  // namespace internal
}  // namespace tpm
