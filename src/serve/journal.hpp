// Append-only admission journal, laid out as a replayable bundle.
//
// JournalWriter is the one class that writes a serving session's durable
// record, for every plane: it creates the directory, writes meta.csv, and
// appends one row to jobs.csv (and cancels.csv) per admission (and per
// cancellation), flushed before the client sees the reply — %.17g doubles,
// so the admission stamps round-trip bit-exactly. A session appends the
// admissions of one batch of requests and flushes them together
// (append_admit, then commit) before it releases their replies. A backend
// supplies only its header files, through a thin subclass:
//
//   serve::Journal           capacity.csv + band.csv — an instance bundle,
//                            replayed by `sjs_sim --bundle=<dir>
//                            --scheduler=<meta.csv scheduler>`
//   cluster::ClusterJournal  fleet.csv + server<k>.csv + band.csv — a
//                            cluster bundle (cluster/cluster_journal.hpp)
//
// Replay must reproduce the live session's completion set and captured
// value exactly (the engines' live modes guarantee it; asserted in
// tests/serve_test.cpp and gated in CI by scripts/serve_smoke.sh).
//
// Session files beside the bundle (ignored by the bundle loaders):
//   meta.csv     key,value — scheduler name, accel, admission flag, ...
//   cancels.csv  time,ticket — client cancellations. A session with cancels
//                is NOT replayable (the replay input has no cancel
//                channel); readers must check cancel_count.
//   outcomes.csv written at drain so the replay gate can diff live vs
//                replayed outcomes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "util/csv.hpp"

namespace sjs::serve {

class JournalWriter {
 public:
  using MetaRows = std::vector<std::pair<std::string, std::string>>;

  /// Creates the directory (if missing), writes meta.csv, and opens jobs.csv
  /// and cancels.csv for appending. Throws std::runtime_error on I/O
  /// failure.
  JournalWriter(const std::string& dir, const MetaRows& meta);
  virtual ~JournalWriter() = default;

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one admitted job's row without flushing it; the row is durable
  /// once commit() returns, and the admission must not be acknowledged
  /// before then.
  void append_admit(const Job& job);

  /// Flushes every row appended since the last commit (an admission the
  /// client saw ACCEPTED for must be on disk). Throws std::runtime_error if
  /// a write or the flush fails (short write, ENOSPC): a silently dropped
  /// row would break the replay-parity guarantee, so the session must fail
  /// loudly instead.
  void commit();

  /// append_admit + commit: one admitted job, flushed on its own.
  void record_admit(const Job& job);

  /// Appends one cancellation. Throws on write failure like record_admit.
  void record_cancel(double time, JobId job);

  /// Flushes and closes the writers (the destructor also flushes, but only
  /// close() reports failure). Throws if the final flush fails.
  void close();

  const std::string& dir() const { return dir_; }
  std::uint64_t admit_count() const { return admit_rows_; }
  std::uint64_t cancel_count() const { return cancel_rows_; }

 protected:
  std::string path(const std::string& file) const;

 private:
  std::string dir_;
  std::unique_ptr<CsvWriter> jobs_csv_;
  std::unique_ptr<CsvWriter> cancels_csv_;
  std::uint64_t admit_rows_ = 0;      // committed jobs.csv rows
  std::uint64_t unflushed_rows_ = 0;  // appended since the last commit
  std::uint64_t cancel_rows_ = 0;
};

/// The single-engine journal: an instance bundle (capacity.csv + band.csv).
class Journal : public JournalWriter {
 public:
  struct Meta {
    std::string scheduler;
    double accel = 1.0;
    bool admission_check = true;
  };

  Journal(const std::string& dir, const cap::CapacityProfile& capacity,
          double c_lo, double c_hi, const Meta& meta);
};

/// meta.csv as a key→value map. Throws on missing/malformed file.
std::map<std::string, std::string> read_journal_meta(const std::string& dir);

/// time,ticket rows of cancels.csv (empty when the file is absent).
std::vector<std::pair<double, JobId>> read_journal_cancels(
    const std::string& dir);

}  // namespace sjs::serve
