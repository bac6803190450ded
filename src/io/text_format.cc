#include "io/text_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <istream>
#include <iterator>
#include <sstream>
#include <unordered_map>

#include "io/atomic_write.h"
#include "io/io_fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/parallel.h"
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

  /// Counts `n` more skipped lines whose diagnostics are already suppressed.
  void RecoverSilently(uint64_t n) {
    TPM_DCHECK(n == 0 || recovered_ >= options_.max_error_reports);
    recovered_ += n;
  }

 private:
  const TextReadOptions& options_;
  WallTimer timer_;
  uint64_t lines_ = 0;
  uint64_t bytes_ = 0;
  uint64_t recovered_ = 0;
};

// CSV column positions, read from the header row.
struct Columns {
  int seq = -1, event = -1, start = -1, finish = -1;

  bool complete() const { return seq >= 0 && event >= 0 && start >= 0 && finish >= 0; }
  int needed() const { return std::max(std::max(seq, event), std::max(start, finish)); }
};

// One shard's rows, grouped by sequence. Sequence ids and symbols are
// interned locally, in their order of first appearance within the shard, as
// views into the input text, which outlives the shard.
class ShardRows {
 public:
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
    if (seq_ids_.empty() || sid != last_sid_) {
      auto [it, inserted] = seq_index_.try_emplace(sid, seq_ids_.size());
      if (inserted) {
        seq_ids_.push_back(sid);
        intervals_.emplace_back();
      }
      last_sid_ = sid;
      last_ = it->second;
    }
    auto [sym, inserted] = symbol_index_.try_emplace(symbol, symbols_.size());
    if (inserted) symbols_.push_back(symbol);
    intervals_[last_].emplace_back(sym->second, s, f);
    return Status::OK();
  }

  /// The local index of sequence `sid`, or -1 when the shard has no row of
  /// it.
  int64_t Find(std::string_view sid) const {
    const auto it = seq_index_.find(sid);
    return it == seq_index_.end() ? -1 : int64_t{it->second};
  }

  /// Local sequence -> its id, and its intervals under local symbol ids.
  const std::vector<std::string_view>& seq_ids() const { return seq_ids_; }
  std::vector<std::vector<Interval>>& intervals() { return intervals_; }
  /// Local symbol id -> name.
  const std::vector<std::string_view>& symbols() const { return symbols_; }

 private:
  std::vector<std::string_view> seq_ids_;
  std::vector<std::vector<Interval>> intervals_;
  std::unordered_map<std::string_view, EventId> seq_index_;
  std::string_view last_sid_;
  size_t last_ = 0;
  std::vector<std::string_view> symbols_;
  std::unordered_map<std::string_view, EventId> symbol_index_;
};

// Parses one line after the CSV header into `rows`; a blank or comment line
// adds nothing. Messages cite `line_no`. The result depends only on the
// line, so a failing line re-parsed under another number fails the same way.
Status ParseLine(Dialect dialect, const Columns& cols, std::string_view line,
                 size_t line_no, std::vector<std::string_view>* fields,
                 ShardRows* rows) {
  if (dialect == Dialect::kTisd) {
    line = Trim(line);
    if (line.empty() || line.front() == '#') return Status::OK();
    // Whitespace-separated fields.
    auto space = [&](size_t i) {
      return std::isspace(static_cast<unsigned char>(line[i])) != 0;
    };
    fields->clear();
    for (size_t i = 0; i < line.size();) {
      while (i < line.size() && space(i)) ++i;
      size_t j = i;
      while (j < line.size() && !space(j)) ++j;
      if (j > i) fields->push_back(line.substr(i, j - i));
      i = j;
    }
    if (fields->size() != 4) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu: expected 4 fields <seq> <symbol> <start> <finish>, got %zu",
          line_no, fields->size()));
    }
    return rows->Add((*fields)[0], (*fields)[1], (*fields)[2], (*fields)[3], line_no);
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (Trim(line).empty()) return Status::OK();
  Split(line, ',', fields);
  if (static_cast<int>(fields->size()) <= cols.needed()) {
    return Status::InvalidArgument(StringPrintf("line %zu: too few CSV fields", line_no));
  }
  return rows->Add(Trim((*fields)[cols.seq]), Trim((*fields)[cols.event]),
                   (*fields)[cols.start], (*fields)[cols.finish], line_no);
}

// A failing line of a shard: its number within the shard and its bytes.
struct LineFailure {
  size_t local_line = 0;
  size_t begin = 0;     // first byte of the line
  size_t end = 0;       // one past its last byte, before the '\n'
  size_t consumed = 0;  // one past its '\n' (or the input's end)
};

// One contiguous run of whole lines, [begin, end) of the input.
struct Shard {
  size_t begin = 0;
  size_t end = 0;
  size_t lines = 0;  // lines scanned: all, or through the first failure
  ShardRows rows;
  // kFail: the first failure, which ends the shard. kSkipLine: the first
  // max_error_reports failures; `skipped` counts them all.
  std::vector<LineFailure> failures;
  uint64_t skipped = 0;
};

void ParseShard(Dialect dialect, const Columns& cols, std::string_view text,
                const TextReadOptions& options, Shard* sh) {
  TPM_TRACE_SPAN("io.text.shard");
  std::vector<std::string_view> fields;
  for (size_t pos = sh->begin; pos < sh->end;) {
    const size_t end = std::min(text.find('\n', pos), text.size());
    const LineFailure at{++sh->lines, pos, end, std::min(end + 1, text.size())};
    pos = at.consumed;
    if (ParseLine(dialect, cols, text.substr(at.begin, at.end - at.begin),
                  at.local_line, &fields, &sh->rows)
            .ok()) {
      continue;
    }
    if (options.on_error != TextErrorMode::kSkipLine) {
      sh->failures.push_back(at);
      return;
    }
    if (sh->skipped++ < options.max_error_reports) sh->failures.push_back(at);
  }
}

// The first line start at or after `pos` (the input's end when none).
size_t LineStartAtOrAfter(std::string_view text, size_t pos) {
  if (pos == 0 || pos >= text.size() || text[pos - 1] == '\n') {
    return std::min(pos, text.size());
  }
  const size_t nl = text.find('\n', pos);
  return nl == std::string_view::npos ? text.size() : nl + 1;
}

// Merges the shards in file order. Symbols and sequence ids are numbered by
// first appearance in the file, which is the shards' local orders taken in
// file order; a sequence is its shards' intervals in file order. Which
// earlier shard a sequence continues is looked up per shard, concurrently,
// in the earlier shards' own id maps; sequences are then assembled,
// normalized and validated by range.
Result<IntervalDatabase> JoinShards(std::vector<Shard>* shards,
                                    const TextReadOptions& options,
                                    uint32_t threads) {
  TPM_TRACE_SPAN("io.text.join");
  const uint32_t num_shards = static_cast<uint32_t>(shards->size());
  // Per shard and local sequence: the first earlier shard holding the same
  // id and its local index there, or {num_shards, 0} when none does.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> first_seen(num_shards);
  RunOnWorkers(num_shards, [&](uint32_t k) {
    TPM_TRACE_SPAN("io.text.join.range");
    const std::vector<std::string_view>& ids = (*shards)[k].rows.seq_ids();
    first_seen[k].assign(ids.size(), {num_shards, 0});
    for (uint32_t f = 0; f < k; ++f) {
      for (size_t j = 0; j < ids.size(); ++j) {
        if (first_seen[k][j].first != num_shards) continue;
        const int64_t at = (*shards)[f].rows.Find(ids[j]);
        if (at >= 0) first_seen[k][j] = {f, static_cast<uint32_t>(at)};
      }
    }
  });

  IntervalDatabase db;
  std::vector<std::vector<EventId>> symbol_of(num_shards);
  std::vector<uint8_t> identity(num_shards, 1);  // local id == global id
  std::vector<std::vector<uint32_t>> global_of(num_shards);
  uint32_t num_seqs = 0;
  for (uint32_t k = 0; k < num_shards; ++k) {
    for (std::string_view name : (*shards)[k].rows.symbols()) {
      symbol_of[k].push_back(db.dict().Intern(name));
      if (symbol_of[k].back() != symbol_of[k].size() - 1) identity[k] = 0;
    }
    for (const auto& [f, j] : first_seen[k]) {
      global_of[k].push_back(f == num_shards ? num_seqs++ : global_of[f][j]);
    }
  }
  // Each sequence's pieces, (shard, local sequence), in file order.
  std::vector<uint32_t> first_piece(num_seqs + 1, 0);
  for (const std::vector<uint32_t>& g : global_of) {
    for (uint32_t s : g) ++first_piece[s + 1];
  }
  for (uint32_t s = 0; s < num_seqs; ++s) first_piece[s + 1] += first_piece[s];
  std::vector<std::pair<uint32_t, uint32_t>> pieces(first_piece.back());
  {
    std::vector<uint32_t> cursor(first_piece.begin(), first_piece.end() - 1);
    for (uint32_t k = 0; k < num_shards; ++k) {
      for (uint32_t j = 0; j < global_of[k].size(); ++j) {
        pieces[cursor[global_of[k][j]]++] = {k, j};
      }
    }
  }
  std::vector<EventSequence> seqs(num_seqs);
  ForEachRange(num_seqs, threads, [&](uint32_t, IndexRange r) {
    TPM_TRACE_SPAN("io.text.join.range");
    auto global_ids = [&](uint32_t k, std::vector<Interval>* ivs, size_t from) {
      if (identity[k] != 0) return;
      for (size_t i = from; i < ivs->size(); ++i) {
        (*ivs)[i].event = symbol_of[k][(*ivs)[i].event];
      }
    };
    for (size_t s = r.begin; s < r.end; ++s) {
      const auto [k0, j0] = pieces[first_piece[s]];
      std::vector<Interval> ivs = std::move((*shards)[k0].rows.intervals()[j0]);
      global_ids(k0, &ivs, 0);
      for (uint32_t p = first_piece[s] + 1; p < first_piece[s + 1]; ++p) {
        const auto [k, j] = pieces[p];
        const std::vector<Interval>& more = (*shards)[k].rows.intervals()[j];
        const size_t from = ivs.size();
        ivs.insert(ivs.end(), more.begin(), more.end());
        global_ids(k, &ivs, from);
      }
      seqs[s] = EventSequence(std::move(ivs));  // normalizes
      if (options.merge_conflicts) seqs[s].MergeSameSymbolConflicts();
    }
  });
  db.AddSequences(std::move(seqs), threads);
  TPM_RETURN_NOT_OK(db.Validate(threads).WithContext(
      "input violates the same-symbol non-intersection contract (pass "
      "merge_conflicts to repair)"));
  return db;
}

// The reader core both dialects share. `load` yields the whole input: a
// view of text the caller holds, or of a buffer it fills. The CSV header is
// read first; the rest is cut at line starts into options.threads shards of
// about equal bytes, parsed concurrently (ParseShard) and joined in file
// order (JoinShards). Lines are found with string_view::find (a memchr) and
// split into one reused field vector, so no line allocates beyond its
// interval or a new id or symbol. A shard reports a failing line by
// position; the failure is re-parsed under its file-wide line number, so
// messages, the first failure under kFail and the order of kSkipLine
// diagnostics are those of one scan in file order. The read is inside the
// parse span and timer.
template <typename Load>
Result<IntervalDatabase> ReadText(Dialect dialect, const TextReadOptions& options,
                                  Load load) {
  TPM_TRACE_SPAN("io.text.parse");
  TextReadTally tally(options);
  std::string buffer;
  const std::string_view text = load(buffer);
  Columns cols;
  size_t body = 0;        // first byte after the CSV header
  size_t body_line = 0;   // lines before `body`
  if (dialect == Dialect::kCsv) {
    // The header is the first non-blank line: locate columns by name.
    std::vector<std::string_view> fields;
    while (body < text.size() && !cols.complete()) {
      const size_t end = std::min(text.find('\n', body), text.size());
      std::string_view line = text.substr(body, end - body);
      body = std::min(end + 1, text.size());
      tally.CountThrough(++body_line, body);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (Trim(line).empty()) continue;
      Split(line, ',', &fields);
      for (int i = 0; i < static_cast<int>(fields.size()); ++i) {
        std::string_view h = Trim(fields[i]);
        if (h == "sequence") cols.seq = i;
        if (h == "event") cols.event = i;
        if (h == "start") cols.start = i;
        if (h == "finish") cols.finish = i;
      }
      if (!cols.complete()) {
        return Status::InvalidArgument(
            "CSV header must contain sequence,event,start,finish columns");
      }
    }
    if (!cols.complete()) return Status::InvalidArgument("empty CSV input");
  }

  const uint32_t threads = std::max<uint32_t>(options.threads, 1);
  std::vector<Shard> shards(threads);
  for (uint32_t k = 0; k < threads; ++k) {
    shards[k].begin = k == 0 ? body : shards[k - 1].end;
    const size_t cut = body + (text.size() - body) * (k + 1) / threads;
    shards[k].end = std::max(shards[k].begin, LineStartAtOrAfter(text, cut));
  }
  RunOnWorkers(threads, [&](uint32_t k) {
    ParseShard(dialect, cols, text, options, &shards[k]);
  });

  // Failures in file order, each re-parsed under its file-wide number.
  size_t line_base = body_line;
  std::vector<std::string_view> fields;
  for (const Shard& sh : shards) {
    for (const LineFailure& f : sh.failures) {
      ShardRows scratch;
      const Status st = ParseLine(dialect, cols, text.substr(f.begin, f.end - f.begin),
                                  line_base + f.local_line, &fields, &scratch);
      TPM_DCHECK(!st.ok());
      if (!tally.Recover(line_base + f.local_line, st)) {
        tally.CountThrough(line_base + f.local_line, f.consumed);
        return st;
      }
    }
    tally.RecoverSilently(sh.skipped - sh.failures.size());
    line_base += sh.lines;
  }
  tally.CountThrough(line_base, text.size());
  return JoinShards(&shards, options, threads);
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

// A read-only mapping of a whole regular file. The input is not malloc'd:
// freeing a multi-megabyte malloc block would raise glibc's dynamic mmap
// threshold to its size and move every later allocation below it onto the
// heap.
class FileMapping {
 public:
  FileMapping() = default;
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;
  ~FileMapping() {
    if (data_ != nullptr) munmap(data_, size_);
  }

  /// Maps `fd` when it is a regular file; false when it is not (a pipe, a
  /// FIFO) or cannot be mapped. An empty file maps to an empty view.
  bool Map(int fd) {
    struct stat st;
    if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return false;
    size_ = static_cast<size_t>(st.st_size);
    if (size_ == 0) return true;
    void* p = mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) return false;
    data_ = p;
    return true;
  }

  std::string_view view() const {
    return {static_cast<const char*>(data_), data_ == nullptr ? 0 : size_};
  }

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

// Parses a regular file through a mapping of it, anything else (a pipe, a
// FIFO) through a copy read from the same descriptor: a FIFO opened twice
// would lose what its writer sent to the first reader.
Result<IntervalDatabase> ReadTextFile(const std::string& path, Dialect dialect,
                                      const TextReadOptions& options) {
  if (IoFaultPoint("io.open_read")) {
    return Status::IOError("injected open failure for '" + path + "'");
  }
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for reading");
  FileMapping mapping;
  Result<IntervalDatabase> db =
      ReadText(dialect, options, [&](std::string& buffer) -> std::string_view {
        if (mapping.Map(fd)) return mapping.view();
        // To the end of input; a read error ends it too, as it ends a
        // stream's copy.
        char chunk[1 << 16];
        for (;;) {
          const ssize_t n = read(fd, chunk, sizeof(chunk));
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;
          buffer.append(chunk, static_cast<size_t>(n));
        }
        return buffer;
      });
  close(fd);
  return db;
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
