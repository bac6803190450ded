// Text serialization of temporal databases.
//
// Two dialects share one reader core:
//  * TISD ("temporal interval sequence data"): whitespace-separated
//      <sequence-id> <symbol> <start> <finish>
//    lines, '#' comments, blank lines ignored. The canonical interchange
//    format of this library.
//  * CSV: "sequence,event,start,finish" with a mandatory header row.
//
// Sequence ids may be arbitrary strings; sequences are emitted in first-
// appearance order. Symbols are interned in first-appearance order.
//
// Every Read* entry point hands the whole input, as one buffer, to one line
// scanner: a file or stream is first read into an exact-size string (a
// *String entry point parses its argument in place), inside the
// io.text.parse span. Lines end at '\n' (a CSV line also drops one trailing
// '\r'). Fields are views into the buffer, so a line allocates only to store
// its interval or a new sequence id or symbol. Counters: io.text.read_lines
// (lines read), io.text.read_bytes (bytes consumed: the input's size when it
// is read to the end), io.text.parse_ns (read plus parse) and
// io.recovered_lines (lines dropped by kSkipLine).

#pragma once


#include <iosfwd>
#include <string>

#include "core/database.h"
#include "util/result.h"

namespace tpm {

/// What a reader does when a single line fails to parse. Structural errors
/// (missing CSV header, database-wide validation) always fail regardless.
enum class TextErrorMode {
  kFail,      ///< abort on the first malformed line (default)
  kSkipLine,  ///< drop malformed lines, count them under io.recovered_lines
};

struct TextReadOptions {
  /// Repair same-symbol conflicts by merging instead of failing validation.
  bool merge_conflicts = false;
  /// Per-line recovery policy.
  TextErrorMode on_error = TextErrorMode::kFail;
  /// In kSkipLine mode, at most this many per-line diagnostics are logged;
  /// further skips are counted silently.
  size_t max_error_reports = 5;
};

/// Parses TISD from a stream/string.
Result<IntervalDatabase> ReadTisd(std::istream& in,
                                  const TextReadOptions& options = {});
Result<IntervalDatabase> ReadTisdString(const std::string& text,
                                        const TextReadOptions& options = {});
/// Loads TISD from a file path.
Result<IntervalDatabase> ReadTisdFile(const std::string& path,
                                      const TextReadOptions& options = {});

/// Writes TISD; sequence ids are the 0-based indices.
Status WriteTisd(const IntervalDatabase& db, std::ostream& out);
Status WriteTisdFile(const IntervalDatabase& db, const std::string& path);

/// Parses CSV with header "sequence,event,start,finish" (any column order).
Result<IntervalDatabase> ReadCsv(std::istream& in,
                                 const TextReadOptions& options = {});
Result<IntervalDatabase> ReadCsvString(const std::string& text,
                                       const TextReadOptions& options = {});
Result<IntervalDatabase> ReadCsvFile(const std::string& path,
                                     const TextReadOptions& options = {});

/// Writes CSV with the canonical header.
Status WriteCsv(const IntervalDatabase& db, std::ostream& out);
Status WriteCsvFile(const IntervalDatabase& db, const std::string& path);

}  // namespace tpm

