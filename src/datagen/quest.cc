#include "datagen/quest.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/string_util.h"

namespace tpm {

std::string QuestConfig::Name() const {
  std::string d = num_sequences % 1000 == 0
                      ? StringPrintf("%uk", num_sequences / 1000)
                      : StringPrintf("%u", num_sequences);
  return StringPrintf("D%sC%.0fN%u", d.c_str(), avg_intervals_per_sequence,
                      num_symbols);
}

namespace {

// A potential pattern: intervals with relative times, distinct symbols.
struct Template {
  std::vector<Interval> intervals;  // relative to 0
  TimeT span = 0;
};

Template MakeTemplate(Rng* rng, const ZipfSampler& symbol_zipf, uint32_t n_iv,
                      double avg_duration, double avg_gap) {
  Template t;
  std::vector<EventId> symbols;
  while (symbols.size() < n_iv) {
    EventId e = static_cast<EventId>(symbol_zipf.Sample(rng));
    if (std::find(symbols.begin(), symbols.end(), e) == symbols.end()) {
      symbols.push_back(e);
    }
  }
  TimeT cursor = 0;
  for (EventId e : symbols) {
    // Random arrangement: starts advance by exponential gaps; durations are
    // exponential, which yields a healthy mix of all Allen relations.
    cursor += static_cast<TimeT>(std::floor(rng->Exponential(avg_gap)));
    const TimeT dur = 1 + static_cast<TimeT>(std::floor(rng->Exponential(avg_duration)));
    t.intervals.emplace_back(e, cursor, cursor + dur);
    t.span = std::max(t.span, cursor + dur);
  }
  std::sort(t.intervals.begin(), t.intervals.end());
  return t;
}

}  // namespace

Result<IntervalDatabase> GenerateQuest(const QuestConfig& config) {
  if (config.num_sequences == 0 || config.num_symbols == 0) {
    return Status::InvalidArgument("num_sequences and num_symbols must be > 0");
  }
  if (!(config.avg_intervals_per_sequence > 0.0) ||
      !std::isfinite(config.avg_intervals_per_sequence)) {
    return Status::InvalidArgument(
        "avg_intervals_per_sequence must be finite and > 0");
  }

  IntervalDatabase db;
  for (uint32_t e = 0; e < config.num_symbols; ++e) {
    db.dict().Intern(config.symbol_prefix + std::to_string(e));
  }

  Rng rng(config.seed);
  const ZipfSampler symbol_zipf(config.num_symbols, config.symbol_zipf_theta);
  const ZipfSampler pattern_zipf(std::max<uint32_t>(1, config.num_potential_patterns),
                                 config.pattern_zipf_theta);

  // Pattern pool.
  std::vector<Template> pool;
  pool.reserve(config.num_potential_patterns);
  for (uint32_t i = 0; i < config.num_potential_patterns; ++i) {
    // Templates use distinct symbols, so cap the draw at the alphabet size:
    // an uncapped Poisson draw above num_symbols would spin forever waiting
    // for a distinct symbol that cannot exist.
    const uint32_t n_iv =
        std::min<uint32_t>(config.num_symbols,
                           std::max<uint32_t>(2, rng.Poisson(config.avg_pattern_intervals)));
    pool.push_back(MakeTemplate(&rng, symbol_zipf, n_iv, config.avg_duration,
                                config.avg_gap));
  }

  for (uint32_t s = 0; s < config.num_sequences; ++s) {
    EventSequence seq;
    uint32_t target = std::max<uint32_t>(
        1, rng.Poisson(config.avg_intervals_per_sequence));
    TimeT cursor = 0;

    // Optionally plant one pool pattern (with per-interval corruption).
    if (!pool.empty() && rng.Bernoulli(config.pattern_injection_prob)) {
      const Template& t = pool[pattern_zipf.Sample(&rng)];
      const TimeT base = static_cast<TimeT>(rng.Uniform(50));
      uint32_t planted = 0;
      for (const Interval& iv : t.intervals) {
        if (rng.Bernoulli(config.corruption_prob)) continue;
        seq.Add(iv.event, base + iv.start, base + iv.finish);
        ++planted;
      }
      cursor = base + t.span;
      target = target > planted ? target - planted : 0;
    }

    // Noise intervals.
    for (uint32_t k = 0; k < target; ++k) {
      cursor += static_cast<TimeT>(std::floor(rng.Exponential(config.avg_gap)));
      const EventId e = static_cast<EventId>(symbol_zipf.Sample(&rng));
      if (rng.Bernoulli(config.point_event_prob)) {
        seq.Add(e, cursor, cursor);
      } else {
        const TimeT dur =
            1 + static_cast<TimeT>(std::floor(rng.Exponential(config.avg_duration)));
        seq.Add(e, cursor, cursor + dur);
      }
    }

    seq.MergeSameSymbolConflicts();  // repair planted/noise symbol collisions
    db.AddSequence(std::move(seq));
  }
  return db;
}

}  // namespace tpm
