// Mining-run checkpoints: survive budgets, signals, and crashes without
// losing completed search work.
//
// A checkpoint (magic "TPMC", versioned, CRC-32 guarded like the TPMB
// database format) freezes one growth-engine run at a unit boundary — a
// completed depth-0 bucket — and carries everything a resumed run needs to
// produce byte-identical output to an uninterrupted one:
//
//   * the run identity (database fingerprint + the canonicalized options
//     that shape the search space) so a resume against the wrong database
//     or different options fails fast with a precise field-by-field diff;
//   * the set of completed units, so resumed runs skip finished subtrees;
//   * every pattern emitted up to the boundary, in emission order;
//   * the run's metrics delta at the boundary, which the resumed run folds
//     in as its base (obs::MergeSnapshots).
//
// The level-wise miners do not checkpoint.
//
// Writes go through WriteFileAtomic (temp-then-rename), so an interruption
// mid-write leaves the previous checkpoint intact — there is no torn state.
// Fault sites (see util/fault.h): io.checkpoint.open, io.checkpoint.write,
// io.checkpoint.rename. See docs/ROBUSTNESS.md ("Checkpoint & resume").

#pragma once


#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/timer.h"

namespace tpm {

/// Order-sensitive FNV-1a 64 fingerprint over the dictionary and every
/// interval. Any change to symbols, sequence order, or interval data yields
/// a different fingerprint, which invalidates checkpoints for the database.
uint64_t FingerprintDatabase(const IntervalDatabase& db);

/// The canonicalized identity of a mining run: everything that shapes the
/// search space. Guard budgets (time/memory/pattern caps) are deliberately
/// excluded — a resume may run under different budgets and still produce
/// the identical pattern stream.
struct CheckpointRunKey {
  uint64_t db_fingerprint = 0;
  std::string language;    ///< "endpoint" | "coincidence"
  std::string algo;        ///< "growth" | "growth-physical"
  double min_support = 0.0;
  uint32_t max_items = 0;
  uint32_t max_length = 0;
  TimeT max_window = 0;
  bool pair_pruning = false;
  bool postfix_pruning = false;
  bool validity_pruning = false;

  friend bool operator==(const CheckpointRunKey& a, const CheckpointRunKey& b);
  friend bool operator!=(const CheckpointRunKey& a, const CheckpointRunKey& b) {
    return !(a == b);
  }
};

/// Names every field that differs between a checkpoint's key (`have`) and
/// the resuming run's key (`want`), e.g.
/// "min_support: checkpoint 0.2, run 0.5". Empty when the keys match.
std::vector<std::string> DiffRunKeys(const CheckpointRunKey& have,
                                     const CheckpointRunKey& want);

/// One serialized emitted pattern. Language-neutral: both EndpointPattern
/// and CoincidencePattern are (uint32 items, uint32 offsets-with-sentinel)
/// under the hood.
struct CheckpointPatternRec {
  SupportCount support = 0;
  std::vector<uint32_t> items;
  std::vector<uint32_t> offsets;  ///< full, including the trailing sentinel
};

/// A mining run frozen at a completed-unit boundary.
struct Checkpoint {
  CheckpointRunKey key;

  /// Depth-0 bucket count; 0 when the run stopped before the root scan
  /// finished counting them.
  uint64_t total_units = 0;

  /// Completed units: `(code << 1) | i_ext` depth-0 bucket keys, serialized
  /// in ascending key order so the bytes are identical for every thread
  /// count and completion order.
  std::vector<uint64_t> completed_units;

  /// How many of `patterns` each completed unit contributed, aligned
  /// index-for-index with `completed_units` (so `patterns` is the
  /// concatenation of per-unit banks in that order). Lets a resume regroup
  /// the pattern stream by unit no matter how the writing run scheduled its
  /// workers. Σ unit_pattern_counts == patterns.size() always.
  std::vector<uint64_t> unit_pattern_counts;

  /// Every pattern emitted up to the boundary, grouped per completed unit
  /// (see unit_pattern_counts); within a unit, in emission order.
  std::vector<CheckpointPatternRec> patterns;

  /// The run's domain metrics delta at the boundary, pre-merged with any
  /// earlier resumed segments (resume-of-resume folds transitively).
  obs::MetricsSnapshot metrics;

  /// Cumulative wall-clock seconds across all resumed segments.
  double elapsed_seconds = 0.0;

  /// The interrupted run's --budget, informational only (not identity).
  double time_budget_seconds = 0.0;
};

/// Serializes to the TPMC binary layout (varint payload, trailing CRC-32).
std::string SerializeCheckpoint(const Checkpoint& ckpt);

/// Parses a TPMC buffer. Corruption diagnostics pin the section and byte
/// offset ("section %s, byte offset %zu") exactly like the TPMB reader;
/// an unsupported version yields NotImplemented.
Result<Checkpoint> ParseCheckpoint(const std::string& buffer);

/// Atomically writes `ckpt` to `path` (temp-then-rename; a failure or crash
/// leaves any previous checkpoint at `path` intact).
Status WriteCheckpointFile(const Checkpoint& ckpt, const std::string& path);

/// Reads and parses a checkpoint file.
Result<Checkpoint> ReadCheckpointFile(const std::string& path);

/// Interval-gated checkpoint sink the miners drive at unit boundaries
/// (amortized like obs::ProgressTracker): the engine asks Due() after each
/// completed unit and only serializes when the interval elapsed. Write() is
/// unconditional — the final checkpoint on a guard-stop/fault exit path
/// bypasses the gate. Single-owner, like the miner that drives it.
class CheckpointWriter {
 public:
  /// `interval_seconds` <= 0 means every completed unit is due.
  CheckpointWriter(std::string path, double interval_seconds)
      : path_(std::move(path)), interval_seconds_(interval_seconds) {}

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  const std::string& path() const { return path_; }
  uint64_t writes() const { return writes_; }

  /// True when the gating interval elapsed since the last write (or since
  /// construction, for the first write).
  bool Due() const {
    return interval_seconds_ <= 0.0 ||
           since_last_.ElapsedSeconds() >= interval_seconds_;
  }

  /// Serializes and atomically writes `ckpt`, then re-arms the gate.
  Status Write(const Checkpoint& ckpt);

 private:
  std::string path_;
  double interval_seconds_ = 0.0;
  WallTimer since_last_;
  uint64_t writes_ = 0;
};

}  // namespace tpm
