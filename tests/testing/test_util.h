// Shared helpers for tests.

#pragma once


#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/coincidence.h"
#include "core/database.h"
#include "core/endpoint.h"
#include "core/pattern.h"
#include "miner/options.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace tpm {
namespace testing {

/// Extracts the "byte offset N" a Corruption status reports, or npos when
/// the message carries none. The phrasing is part of the binary readers'
/// error contract (src/io/binary_format.cc, src/io/checkpoint.cc); the fuzz
/// harnesses assert the identical contract without gtest
/// (fuzz/fuzz_util.h).
inline size_t CorruptionOffset(const Status& status) {
  const std::string& msg = status.message();
  const char kNeedle[] = "byte offset ";
  const size_t at = msg.rfind(kNeedle);
  if (at == std::string::npos) return std::string::npos;
  return static_cast<size_t>(
      std::strtoull(msg.c_str() + at + sizeof(kNeedle) - 1, nullptr, 10));
}

/// Every Corruption from the TPMB/TPMC readers must pin a section name and
/// a byte offset that lies within the parsed buffer.
inline void ExpectWellFormedCorruption(const Status& status,
                                       size_t buffer_size) {
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("section "), std::string::npos)
      << status.ToString();
  const size_t offset = CorruptionOffset(status);
  ASSERT_NE(offset, std::string::npos)
      << "no byte offset in: " << status.ToString();
  EXPECT_LE(offset, buffer_size) << status.ToString();
}

/// Interns "A".."Z"-style single-letter symbols so tests can write patterns
/// and intervals symbolically.
inline void InternLetters(Dictionary* dict, int count) {
  for (int i = 0; i < count; ++i) {
    dict->Intern(std::string(1, static_cast<char>('A' + i)));
  }
}

/// Builds a sequence from (symbol-letter, start, finish) triples.
inline EventSequence Seq(Dictionary* dict,
                         std::initializer_list<std::tuple<char, TimeT, TimeT>> ivs) {
  EventSequence s;
  for (const auto& [c, b, e] : ivs) {
    s.Add(dict->Intern(std::string(1, c)), b, e);
  }
  s.Normalize();
  return s;
}

/// One-sequence stores: a view into one is valid while the store lives.
inline EndpointDatabase EndpointStore(const EventSequence& s) {
  return EndpointDatabase::FromSequences({&s, 1}, 0);
}
inline CoincidenceDatabase CoincidenceStore(const EventSequence& s) {
  return CoincidenceDatabase::FromSequences({&s, 1}, 0);
}

/// True when coincidence items `p` and `q` belong to one interval, derived
/// from the segments alone (core/coincidence.h): both hold one symbol, every
/// segment between theirs holds it too, and each adjacent pair meets in time.
/// Independent of the alive_until bounds the miners use.
inline bool SameInterval(const CoincidenceSequence& cs, uint32_t p, uint32_t q) {
  if (cs.item(p) != cs.item(q)) return false;
  const uint32_t g = std::min(cs.item_segment(p), cs.item_segment(q));
  const uint32_t h = std::max(cs.item_segment(p), cs.item_segment(q));
  for (uint32_t k = g; k < h; ++k) {
    if (cs.seg_end_time(k) != cs.seg_start_time(k + 1) ||
        cs.FindInSegment(k + 1, cs.item(p)) == CoincidenceSequence::kNotFoundItem) {
      return false;
    }
  }
  return true;
}

/// \brief Generates a small random valid database for property tests.
///
/// Uses a tiny alphabet and short horizon so same-symbol repetitions, point
/// events, shared endpoints and all Allen relations occur with high
/// probability — the stress regime for partner-consistency logic.
inline IntervalDatabase RandomTinyDatabase(uint64_t seed, uint32_t num_sequences,
                                           uint32_t alphabet, double avg_intervals,
                                           TimeT horizon) {
  IntervalDatabase db;
  for (uint32_t i = 0; i < alphabet; ++i) {
    db.dict().Intern(std::string(1, static_cast<char>('A' + i)));
  }
  Rng rng(seed);
  for (uint32_t s = 0; s < num_sequences; ++s) {
    EventSequence seq;
    const uint32_t n = 1 + rng.Poisson(avg_intervals);
    for (uint32_t k = 0; k < n; ++k) {
      const EventId e = static_cast<EventId>(rng.Uniform(alphabet));
      const TimeT b = static_cast<TimeT>(rng.Uniform(static_cast<uint64_t>(horizon)));
      const TimeT len = rng.Bernoulli(0.2)
                            ? 0
                            : 1 + static_cast<TimeT>(rng.Uniform(
                                      static_cast<uint64_t>(horizon) / 2));
      seq.Add(e, b, b + len);
    }
    seq.MergeSameSymbolConflicts();
    db.AddSequence(std::move(seq));
  }
  return db;
}

/// Renders a mining result as sorted "pattern@support" lines for comparison.
template <typename PatternT>
std::vector<std::string> Render(const MiningResult<PatternT>& result,
                                const Dictionary& dict) {
  std::vector<std::string> out;
  out.reserve(result.patterns.size());
  for (const auto& mp : result.patterns) {
    out.push_back(mp.pattern.ToString(dict) + "@" + std::to_string(mp.support));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Renders the exact emission order (Render sorts): the parallel merger must
/// reproduce the single-thread pattern STREAM, not just the set.
template <typename PatternT>
std::string EmissionOrderRender(const MiningResult<PatternT>& result,
                                const Dictionary& dict) {
  std::string out;
  for (const auto& mp : result.patterns) {
    out += mp.pattern.ToString(dict) + "@" + std::to_string(mp.support) + "\n";
  }
  return out;
}

/// The comparable slice of a run's metrics delta. Three families
/// legitimately vary between equivalent runs and are stripped before
/// byte-comparison; everything else — search counts, prune hits, states,
/// flight events, depth histograms — must match exactly:
///   miner.arena.*  allocation granularity (worker split)
///   process.*      RSS depends on allocator history, not logical work
///   miner.worker.* scheduling attribution is thread-count/timing dependent
///                  by design (which worker got which unit)
inline std::string ComparableMetricsJson(obs::MetricsSnapshot snap) {
  auto dropped = [](const std::string& name) {
    return name.rfind("miner.arena.", 0) == 0 ||
           name.rfind("process.", 0) == 0 ||
           name.rfind("miner.worker.", 0) == 0;
  };
  snap.counters.erase(
      std::remove_if(
          snap.counters.begin(), snap.counters.end(),
          [&](const obs::CounterSample& s) { return dropped(s.name); }),
      snap.counters.end());
  snap.gauges.erase(
      std::remove_if(
          snap.gauges.begin(), snap.gauges.end(),
          [&](const obs::GaugeSample& s) { return dropped(s.name); }),
      snap.gauges.end());
  snap.histograms.erase(
      std::remove_if(
          snap.histograms.begin(), snap.histograms.end(),
          [&](const obs::HistogramSample& s) { return dropped(s.name); }),
      snap.histograms.end());
  return snap.ToJson();
}

}  // namespace testing
}  // namespace tpm

