// Differential test of the TISD/CSV readers (src/io/text_format.cc) against
// the reader they replaced: a std::getline loop over the stream, a fresh
// field vector per line, strtoll on a std::string copy per integer, and a
// std::string-keyed sequence map. That reader is kept here, verbatim in
// behavior, as the oracle. Random texts cover CRLF line ends, a missing
// final newline, embedded NULs, long lines, blank/comment/padded lines,
// permuted and extra CSV columns, too few fields, bad integers and
// start > finish, in both error modes with and without conflict merging.
// Both readers must return the same Status (code and message), the same
// database (dictionary order and sequences), and count the same lines read
// and lines recovered.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/text_format.h"
#include "obs/metrics.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tpm {
namespace {

// ---- The oracle: the getline reader, kept as it was. ----

Result<int64_t> OracleParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

struct OracleResult {
  Result<IntervalDatabase> db = Status::Internal("not read");
  uint64_t lines = 0;
  uint64_t recovered = 0;
};

class OracleBuilder {
 public:
  explicit OracleBuilder(const TextReadOptions& options) : options_(options) {}

  Status Add(std::string_view sid, std::string_view symbol, std::string_view start,
             std::string_view finish, size_t line_no) {
    TPM_ASSIGN_OR_RETURN(int64_t s, OracleParseInt64(start));
    TPM_ASSIGN_OR_RETURN(int64_t f, OracleParseInt64(finish));
    if (s > f) {
      return Status::InvalidArgument(
          StringPrintf("line %zu: start %lld > finish %lld", line_no,
                       static_cast<long long>(s), static_cast<long long>(f)));
    }
    const std::string key(sid);
    auto [it, inserted] = index_.emplace(key, sequences_.size());
    if (inserted) sequences_.emplace_back();
    const EventId e = db_.dict().Intern(std::string(symbol));
    sequences_[it->second].Add(e, s, f);
    return Status::OK();
  }

  Result<IntervalDatabase> Finish() {
    for (EventSequence& seq : sequences_) {
      if (options_.merge_conflicts) {
        seq.MergeSameSymbolConflicts();
      } else {
        seq.Normalize();
      }
      db_.AddSequence(std::move(seq));
    }
    // IntervalDatabase::Validate as it was: sequence by sequence.
    for (size_t i = 0; i < db_.size(); ++i) {
      Status s = db_[i].Validate();
      if (!s.ok()) {
        return s.WithContext(StringPrintf("sequence %zu", i))
            .WithContext(
                "input violates the same-symbol non-intersection contract (pass "
                "merge_conflicts to repair)");
      }
    }
    return std::move(db_);
  }

 private:
  const TextReadOptions& options_;
  IntervalDatabase db_;
  std::vector<EventSequence> sequences_;
  std::unordered_map<std::string, size_t> index_;
};

OracleResult OracleReadTisd(std::istream& in, const TextReadOptions& options) {
  OracleResult out;
  OracleBuilder builder(options);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ++out.lines;
    std::string_view v = Trim(line);
    if (v.empty() || v.front() == '#') continue;
    std::vector<std::string_view> fields;
    size_t i = 0;
    while (i < v.size()) {
      while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
      size_t j = i;
      while (j < v.size() && !std::isspace(static_cast<unsigned char>(v[j]))) ++j;
      if (j > i) fields.push_back(v.substr(i, j - i));
      i = j;
    }
    Status st;
    if (fields.size() != 4) {
      st = Status::InvalidArgument(StringPrintf(
          "line %zu: expected 4 fields <seq> <symbol> <start> <finish>, got %zu",
          line_no, fields.size()));
    } else {
      st = builder.Add(fields[0], fields[1], fields[2], fields[3], line_no);
    }
    if (!st.ok()) {
      if (options.on_error != TextErrorMode::kSkipLine) {
        out.db = std::move(st);
        return out;
      }
      ++out.recovered;
    }
  }
  out.db = builder.Finish();
  return out;
}

OracleResult OracleReadCsv(std::istream& in, const TextReadOptions& options) {
  OracleResult out;
  OracleBuilder builder(options);
  std::string line;
  size_t line_no = 0;
  int col_seq = -1, col_event = -1, col_start = -1, col_finish = -1;
  while (std::getline(in, line)) {
    ++line_no;
    ++out.lines;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string_view v = line;
    if (Trim(v).empty()) continue;
    std::vector<std::string_view> fields = Split(v, ',');
    if (line_no == 1 || col_seq < 0) {
      for (int i = 0; i < static_cast<int>(fields.size()); ++i) {
        std::string_view h = Trim(fields[i]);
        if (h == "sequence") col_seq = i;
        if (h == "event") col_event = i;
        if (h == "start") col_start = i;
        if (h == "finish") col_finish = i;
      }
      if (col_seq < 0 || col_event < 0 || col_start < 0 || col_finish < 0) {
        out.db = Status::InvalidArgument(
            "CSV header must contain sequence,event,start,finish columns");
        return out;
      }
      continue;
    }
    const int needed =
        std::max(std::max(col_seq, col_event), std::max(col_start, col_finish));
    Status st;
    if (static_cast<int>(fields.size()) <= needed) {
      st = Status::InvalidArgument(
          StringPrintf("line %zu: too few CSV fields", line_no));
    } else {
      st = builder.Add(Trim(fields[col_seq]), Trim(fields[col_event]),
                       fields[col_start], fields[col_finish], line_no);
    }
    if (!st.ok()) {
      if (options.on_error != TextErrorMode::kSkipLine) {
        out.db = std::move(st);
        return out;
      }
      ++out.recovered;
    }
  }
  out.db = col_seq < 0 ? Result<IntervalDatabase>(
                             Status::InvalidArgument("empty CSV input"))
                       : builder.Finish();
  return out;
}

// ---- Random texts. ----

std::string Pick(Rng& rng, std::initializer_list<const char*> pool) {
  return *(pool.begin() + rng.Uniform(pool.size()));
}

std::string RandomInt(Rng& rng, int64_t value) {
  if (rng.Bernoulli(0.9)) return std::to_string(value);
  return Pick(rng, {"", "x", "1x", "+5", " 7 ", "\t4", "-", "+", "+-3", "--1",
                    "1 2", "0x10", "99999999999999999999",
                    "-9223372036854775809", "9223372036854775807"});
}

// One data row's (sequence, event, start, finish) values.
std::vector<std::string> RandomRow(Rng& rng, bool wide_times) {
  std::string sid = Pick(rng, {"s1", "s2", "7", "x"});
  std::string symbol = Pick(rng, {"A", "B", "C", "Fever", "rash"});
  if (rng.Bernoulli(0.03)) symbol = std::string(3000 + rng.Uniform(3000), 'L');
  if (rng.Bernoulli(0.03)) symbol = std::string("N\0l", 3);
  if (rng.Bernoulli(0.02)) sid = std::string("s\0", 2);
  const int64_t start = rng.UniformRange(0, wide_times ? 5000 : 12);
  const int64_t finish =
      rng.Bernoulli(0.9) ? start + rng.UniformRange(0, 5) : rng.UniformRange(-3, 12);
  return {sid, symbol, RandomInt(rng, start), RandomInt(rng, finish)};
}

std::string Pad(Rng& rng, const std::string& field) {
  if (!rng.Bernoulli(0.1)) return field;
  return Pick(rng, {" ", "\t", "  "}) + field + Pick(rng, {"", " ", "\t"});
}

std::string RandomText(Rng& rng, bool csv) {
  const bool wide_times = rng.Bernoulli(0.5);
  std::vector<std::string> lines;
  // CSV: the header, its columns permuted, sometimes with an extra column
  // and rarely missing one.
  std::vector<std::string> columns = {"sequence", "event", "start", "finish"};
  if (csv) {
    while (rng.Bernoulli(0.1)) lines.push_back(rng.Bernoulli(0.5) ? "" : " \t");
    std::shuffle(columns.begin(), columns.end(), rng);
    if (rng.Bernoulli(0.3)) {
      columns.insert(columns.begin() + static_cast<std::ptrdiff_t>(rng.Uniform(5)),
                     "note");
    }
    if (rng.Bernoulli(0.03)) columns.pop_back();
    std::string header;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) header += ',';
      header += Pad(rng, columns[i]);
    }
    if (!rng.Bernoulli(0.02)) lines.push_back(header);
  }
  const size_t n = rng.Uniform(40);
  for (size_t k = 0; k < n; ++k) {
    const uint64_t kind = rng.Uniform(100);
    if (kind < 15) {  // blank, whitespace-only and comment lines
      lines.push_back(Pick(rng, {"", " ", "\t", "  \t ", "# comment", "#", "  # x"}));
      continue;
    }
    std::vector<std::string> row = RandomRow(rng, wide_times);
    std::vector<std::string> fields;
    if (csv) {
      for (const std::string& c : columns) {
        if (c == "sequence") fields.push_back(row[0]);
        if (c == "event") fields.push_back(row[1]);
        if (c == "start") fields.push_back(row[2]);
        if (c == "finish") fields.push_back(row[3]);
        if (c == "note") fields.push_back(Pick(rng, {"", "n", " a b "}));
      }
    } else {
      fields = row;
    }
    if (kind < 22 && !fields.empty()) {
      fields.resize(rng.Uniform(fields.size()));  // too few fields
    } else if (kind < 27) {
      fields.push_back("extra");  // too many for TISD, harmless for CSV
    }
    std::string line;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line += csv ? "," : Pick(rng, {" ", "\t", "  "});
      line += csv ? Pad(rng, fields[i]) : fields[i];
    }
    if (!csv && rng.Bernoulli(0.1)) line = Pick(rng, {" ", "\t"}) + line + " ";
    lines.push_back(line);
  }
  std::string text;
  for (size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    const bool last = i + 1 == lines.size();
    if (last && rng.Bernoulli(0.3)) break;  // no final newline
    if (rng.Bernoulli(0.02)) text += '\r';  // a stray CR before the line end
    text += rng.Bernoulli(0.2) ? "\r\n" : "\n";
  }
  return text;
}

void ExpectSameDatabase(const IntervalDatabase& got, const IntervalDatabase& want) {
  EXPECT_EQ(got.dict().names(), want.dict().names());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "sequence " << i;
  }
}

TEST(TextOracleTest, ReadersMatchTheGetlineReader) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* read_lines = reg.GetCounter("io.text.read_lines");
  obs::Counter* recovered_lines = reg.GetCounter("io.recovered_lines");
  Rng rng(27);
  size_t accepted = 0;
  size_t rejected = 0;
  size_t recovered = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    for (const bool csv : {false, true}) {
      const std::string text = RandomText(rng, csv);
      for (int mode = 0; mode < 4; ++mode) {
        TextReadOptions options;
        options.on_error =
            (mode & 1) != 0 ? TextErrorMode::kSkipLine : TextErrorMode::kFail;
        options.merge_conflicts = (mode & 2) != 0;
        options.max_error_reports = 0;
        SCOPED_TRACE(StringPrintf("trial %d, %s, mode %d", trial,
                                  csv ? "csv" : "tisd", mode));
        std::istringstream oracle_in(text);
        const OracleResult want = csv ? OracleReadCsv(oracle_in, options)
                                      : OracleReadTisd(oracle_in, options);
        [[maybe_unused]] const uint64_t lines0 = read_lines->Value();
        [[maybe_unused]] const uint64_t recovered0 = recovered_lines->Value();
        // Alternate the string and stream entry points.
        auto read = [&] {
          std::istringstream in(text);
          if (trial % 2 == 0) {
            return csv ? ReadCsvString(text, options) : ReadTisdString(text, options);
          }
          return csv ? ReadCsv(in, options) : ReadTisd(in, options);
        };
        const Result<IntervalDatabase> got = read();
        ASSERT_EQ(got.status().code(), want.db.status().code())
            << got.status() << " vs " << want.db.status() << "\n" << text;
        ASSERT_EQ(got.status().message(), want.db.status().message()) << text;
        if (got.ok()) ExpectSameDatabase(*got, *want.db);
#ifndef TPM_OBS_DISABLED
        EXPECT_EQ(read_lines->Value() - lines0, want.lines) << text;
        EXPECT_EQ(recovered_lines->Value() - recovered0, want.recovered) << text;
#endif
        ++(got.ok() ? accepted : rejected);
        recovered += want.recovered;
      }
    }
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(recovered, 1000u);
}

// ParseInt64 on from_chars accepts and rejects what strtoll did, with the
// same message.
TEST(TextOracleTest, ParseInt64MatchesStrtoll) {
  Rng rng(64);
  const std::string alphabet = "+- \t0123456789x";
  for (int trial = 0; trial < 20000; ++trial) {
    std::string s;
    const size_t n = rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) s += alphabet[rng.Uniform(alphabet.size())];
    if (rng.Bernoulli(0.05)) {
      s.assign(20, '9');  // a sign and 19 nines: just past either bound
      s[0] = rng.Bernoulli(0.5) ? '-' : '+';
    }
    const Result<int64_t> got = ParseInt64(s);
    const Result<int64_t> want = OracleParseInt64(s);
    ASSERT_EQ(got.status().code(), want.status().code()) << "'" << s << "'";
    ASSERT_EQ(got.status().message(), want.status().message()) << "'" << s << "'";
    if (got.ok()) {
      ASSERT_EQ(*got, *want) << "'" << s << "'";
    }
  }
}

}  // namespace
}  // namespace tpm
