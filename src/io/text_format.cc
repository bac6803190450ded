#include "io/text_format.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_map>

#include "io/atomic_write.h"
#include "io/io_fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tpm {

namespace {

enum class Dialect { kTisd, kCsv };

// Charges lines/bytes/elapsed-ns and recovered lines to the metrics registry
// on scope exit, so every return path (including parse errors) is
// attributed. Applies kSkipLine recovery, logging at most max_error_reports
// diagnostics so a badly corrupted file cannot flood the log.
class TextReadTally {
 public:
  explicit TextReadTally(const TextReadOptions& options) : options_(options) {}
  ~TextReadTally() {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("io.text.read_lines")->Increment(lines_);
    reg.GetCounter("io.text.read_bytes")->Increment(bytes_);
    reg.GetCounter("io.text.parse_ns")
        ->Increment(static_cast<uint64_t>(timer_.ElapsedSeconds() * 1e9));
    if (recovered_ > 0) reg.GetCounter("io.recovered_lines")->Increment(recovered_);
  }

  /// Lines 1..`line_no` have been read, ending at byte `consumed`.
  void CountThrough(size_t line_no, size_t consumed) {
    lines_ = line_no;
    bytes_ = consumed;
  }

  /// Returns true when the parse should swallow `error` and continue.
  bool Recover(size_t line_no, const Status& error) {
    if (options_.on_error != TextErrorMode::kSkipLine) return false;
    ++recovered_;
    if (recovered_ <= options_.max_error_reports) {
      TPM_LOG(Warning) << "skipping malformed line " << line_no << ": "
                       << error.message();
      if (recovered_ == options_.max_error_reports) {
        TPM_LOG(Warning) << "further malformed-line diagnostics suppressed "
                         << "(io.recovered_lines has the full count)";
      }
    }
    return true;
  }

 private:
  const TextReadOptions& options_;
  WallTimer timer_;
  uint64_t lines_ = 0;
  uint64_t bytes_ = 0;
  uint64_t recovered_ = 0;
};

// Accumulates intervals grouped by sequence id, preserving first-appearance
// order of sequences. Ids are views into the input text, which outlives the
// builder.
class DatabaseBuilder {
 public:
  explicit DatabaseBuilder(const TextReadOptions& options) : options_(options) {}

  Status Add(std::string_view sid, std::string_view symbol, std::string_view start,
             std::string_view finish, size_t line_no) {
    TPM_ASSIGN_OR_RETURN(int64_t s, ParseInt64(start));
    TPM_ASSIGN_OR_RETURN(int64_t f, ParseInt64(finish));
    if (s > f) {
      return Status::InvalidArgument(
          StringPrintf("line %zu: start %lld > finish %lld", line_no,
                       static_cast<long long>(s), static_cast<long long>(f)));
    }
    // A sequence's rows are usually adjacent: the previous row's id is
    // checked before the map.
    if (sequences_.empty() || sid != last_sid_) {
      auto [it, inserted] = index_.emplace(sid, sequences_.size());
      if (inserted) sequences_.emplace_back();
      last_sid_ = sid;
      last_ = it->second;
    }
    sequences_[last_].Add(db_.dict().Intern(symbol), s, f);
    return Status::OK();
  }

  Result<IntervalDatabase> Finish() {
    for (EventSequence& seq : sequences_) {
      if (options_.merge_conflicts) seq.MergeSameSymbolConflicts();
      db_.AddSequence(std::move(seq));  // normalizes
    }
    TPM_RETURN_NOT_OK(db_.Validate().WithContext(
        "input violates the same-symbol non-intersection contract (pass "
        "merge_conflicts to repair)"));
    return std::move(db_);
  }

 private:
  const TextReadOptions& options_;
  IntervalDatabase db_;
  std::vector<EventSequence> sequences_;
  std::unordered_map<std::string_view, size_t> index_;
  std::string_view last_sid_;
  size_t last_ = 0;
};

// The reader core both dialects share. `load` yields the whole input: a
// view of text the caller holds, or of `buffer` filled by one read. Lines are
// found with string_view::find (a memchr) and split into one reused field
// vector, so no line allocates. The read is inside the parse span and timer.
template <typename Load>
Result<IntervalDatabase> ReadText(Dialect dialect, const TextReadOptions& options,
                                  Load load) {
  TPM_TRACE_SPAN("io.text.parse");
  TextReadTally tally(options);
  std::string buffer;
  const std::string_view text = load(buffer);
  DatabaseBuilder builder(options);
  std::vector<std::string_view> fields;
  int col_seq = -1, col_event = -1, col_start = -1, col_finish = -1;
  size_t line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = std::min(end + 1, text.size());
    tally.CountThrough(++line_no, pos);
    Status st;
    if (dialect == Dialect::kTisd) {
      line = Trim(line);
      if (line.empty() || line.front() == '#') continue;
      // Whitespace-separated fields.
      auto space = [&](size_t i) {
        return std::isspace(static_cast<unsigned char>(line[i])) != 0;
      };
      fields.clear();
      for (size_t i = 0; i < line.size();) {
        while (i < line.size() && space(i)) ++i;
        size_t j = i;
        while (j < line.size() && !space(j)) ++j;
        if (j > i) fields.push_back(line.substr(i, j - i));
        i = j;
      }
      if (fields.size() != 4) {
        st = Status::InvalidArgument(StringPrintf(
            "line %zu: expected 4 fields <seq> <symbol> <start> <finish>, got %zu",
            line_no, fields.size()));
      } else {
        st = builder.Add(fields[0], fields[1], fields[2], fields[3], line_no);
      }
    } else {
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (Trim(line).empty()) continue;
      Split(line, ',', &fields);
      if (col_seq < 0) {
        // Header row: locate columns by name.
        for (int i = 0; i < static_cast<int>(fields.size()); ++i) {
          std::string_view h = Trim(fields[i]);
          if (h == "sequence") col_seq = i;
          if (h == "event") col_event = i;
          if (h == "start") col_start = i;
          if (h == "finish") col_finish = i;
        }
        if (col_seq < 0 || col_event < 0 || col_start < 0 || col_finish < 0) {
          return Status::InvalidArgument(
              "CSV header must contain sequence,event,start,finish columns");
        }
        continue;
      }
      const int needed =
          std::max(std::max(col_seq, col_event), std::max(col_start, col_finish));
      if (static_cast<int>(fields.size()) <= needed) {
        st = Status::InvalidArgument(
            StringPrintf("line %zu: too few CSV fields", line_no));
      } else {
        st = builder.Add(Trim(fields[col_seq]), Trim(fields[col_event]),
                         fields[col_start], fields[col_finish], line_no);
      }
    }
    if (!st.ok() && !tally.Recover(line_no, st)) return st;
  }
  if (dialect == Dialect::kCsv && col_seq < 0) {
    return Status::InvalidArgument("empty CSV input");
  }
  return builder.Finish();
}

// Reads the rest of `in` in one read of its exact size, or by a streamed
// copy where the stream cannot seek (a pipe).
Result<IntervalDatabase> ReadStream(std::istream& in, Dialect dialect,
                                    const TextReadOptions& options) {
  return ReadText(dialect, options, [&](std::string& buffer) {
    const std::streampos here = in.tellg();
    if (here != std::streampos(-1) && in.seekg(0, std::ios::end)) {
      buffer.resize(static_cast<size_t>(in.tellg() - here));
      in.seekg(here);
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.resize(static_cast<size_t>(in.gcount()));
    } else {
      in.clear();
      buffer.assign(std::istreambuf_iterator<char>(in), {});
    }
    return std::string_view(buffer);
  });
}

Result<IntervalDatabase> ReadTextFile(const std::string& path, Dialect dialect,
                                      const TextReadOptions& options) {
  if (IoFaultPoint("io.open_read")) {
    return Status::IOError("injected open failure for '" + path + "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadStream(in, dialect, options);
}

}  // namespace

Result<IntervalDatabase> ReadTisd(std::istream& in, const TextReadOptions& options) {
  return ReadStream(in, Dialect::kTisd, options);
}

Result<IntervalDatabase> ReadTisdString(const std::string& text,
                                        const TextReadOptions& options) {
  return ReadText(Dialect::kTisd, options,
                  [&](std::string&) { return std::string_view(text); });
}

Result<IntervalDatabase> ReadTisdFile(const std::string& path,
                                      const TextReadOptions& options) {
  return ReadTextFile(path, Dialect::kTisd, options);
}

Status WriteTisd(const IntervalDatabase& db, std::ostream& out) {
  TPM_TRACE_SPAN("io.text.write");
  out << "# TISD: <sequence> <symbol> <start> <finish>\n";
  for (size_t s = 0; s < db.size(); ++s) {
    for (const Interval& iv : db[s].intervals()) {
      out << s << ' ' << db.dict().Name(iv.event) << ' ' << iv.start << ' '
          << iv.finish << '\n';
    }
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteTisdFile(const IntervalDatabase& db, const std::string& path) {
  std::ostringstream out;
  TPM_RETURN_NOT_OK(WriteTisd(db, out));
  return WriteFileAtomic(path, out.str());
}

Result<IntervalDatabase> ReadCsv(std::istream& in, const TextReadOptions& options) {
  return ReadStream(in, Dialect::kCsv, options);
}

Result<IntervalDatabase> ReadCsvString(const std::string& text,
                                       const TextReadOptions& options) {
  return ReadText(Dialect::kCsv, options,
                  [&](std::string&) { return std::string_view(text); });
}

Result<IntervalDatabase> ReadCsvFile(const std::string& path,
                                     const TextReadOptions& options) {
  return ReadTextFile(path, Dialect::kCsv, options);
}

Status WriteCsv(const IntervalDatabase& db, std::ostream& out) {
  TPM_TRACE_SPAN("io.text.write");
  out << "sequence,event,start,finish\n";
  for (size_t s = 0; s < db.size(); ++s) {
    for (const Interval& iv : db[s].intervals()) {
      out << s << ',' << db.dict().Name(iv.event) << ',' << iv.start << ','
          << iv.finish << '\n';
    }
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteCsvFile(const IntervalDatabase& db, const std::string& path) {
  std::ostringstream out;
  TPM_RETURN_NOT_OK(WriteCsv(db, out));
  return WriteFileAtomic(path, out.str());
}

}  // namespace tpm
