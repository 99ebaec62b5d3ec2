// Session — the per-request serving contract, written once for every plane
// (docs/serving.md).
//
// A session owns one live engine (through its Backend), the admission gate,
// the clock bridge, the journal, and the bookkeeping that turns engine
// events into client notifications. It handles decoded SUBMIT / CANCEL /
// QUERY requests and answers through its Reply target; it never touches a
// socket or a thread. The socket front end (serve/server.hpp) runs either
// one session inline on the socket thread, or one per shard thread behind
// bounded conc::Channels.
//
// Admission path for SUBMIT(p, d_rel, v) (serve/admission.hpp):
//   draining              → REJECTED(draining)
//   in_flight >= limit    → SHED                 (backpressure)
//   invalid p/d_rel/v     → REJECTED(invalid)
//   d − r < p / c_lo      → REJECTED(inadmissible)   [Thm. 3(3)]
//   otherwise             → release stamped, admitted into the backend,
//                           journalled, ACCEPTED
//
// Group commit: an admission's journal row is appended at once but flushed
// by commit(), and every reply the session produces after it is held back
// until then, so no client sees ACCEPTED before its row is on disk and each
// connection's replies keep their order. The front end commits at the end
// of every batch of requests (one socket read, one drain of a shard's
// request channel) and before it answers a client itself; pump(), cancels
// and finalize() commit first, and a batch commits early once
// kMaxStagedAdmissions rows await the flush. One flush then serves a whole
// batch instead of one write per admitted job.
//
// Journal failure policy (one policy on every plane): an admit or cancel
// that cannot be made durable is answered ERROR(kJournalFailed) — for a
// failed commit, every admission of the batch is withdrawn and answered so
// instead of ACCEPTED — the FIRST failure is kept in journal_error(), and
// the session starts draining — every later submit is refused as draining.
// The front end notices and drains the whole plane; sjs_serve then exits
// non-zero.
//
// Backend seam (a template parameter, so the request path has no virtual
// call). A Backend provides:
//   using Config, Result;  Backend(const Config&)
//   JobId admit(const Job&)             append + admit_live
//   const Job& job(JobId) const
//   bool cancel(JobId)                  cancel_live
//   void advance_to(double);  double next_event_time() const;  double now() const
//   JobState state(JobId, double& remaining) const
//   void reserve(std::size_t in_flight, std::size_t jobs)
//   void attach_trace(obs::TraceSink*);  void begin_live()
//   void finish(obs::MetricsRegistry::Shard*)   finish_live (+ extras)
//   const Result& result() const;  void save_outcomes(const std::string&) const
//   std::unique_ptr<JournalWriter> open_journal(const std::string& dir,
//                                               const Config&) const
//   double c_lo() const
// Reply seam: `reply.send(conn, gen, msg)` delivers a message to the
// connection incarnation (conn, gen), or drops it if that incarnation is
// gone.
//
// Tickets: an inline session's ticket is its dense JobId. A shard session
// receives acceptor-assigned global tickets and maps them to its dense local
// JobIds (the journal speaks local ids, keeping each shard bundle
// self-contained); every reply and notification carries the global ticket.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "obs/metrics.hpp"
#include "obs/ring_buffer.hpp"
#include "obs/trace_sink.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "util/flat_map.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

/// Admitted jobs a session reserves its dense per-job tables for (the
/// backend's job list and engine lanes, the scheduler's id-indexed queues,
/// the routes). A reservation is address space only — a page is touched
/// when the job that lands on it is admitted — so it adds no resident
/// memory. What it saves is the doubling copy: the tables all double at the
/// same job count, and at half a million jobs that copies some 90 MB into
/// freshly faulted pages, a stall of tens of milliseconds on the request
/// thread that sheds a burst of submits. Past the reservation the tables
/// double as before.
inline constexpr std::size_t kSessionJobReserve = std::size_t{1} << 21;

/// Admissions a session stages behind one journal flush before it commits
/// early (bounds a long batch's unflushed rows and its replies' wait).
inline constexpr std::size_t kMaxStagedAdmissions = 256;

/// The one serving configuration. The fleet plane extends it with its fleet
/// settings (cluster::ClusterServerConfig).
struct ServerConfig {
  int port = 0;                    ///< 0 → ephemeral
  std::string journal_dir;         ///< empty → no journal
  double accel = 1.0;              ///< virtual seconds per wall second
  std::uint64_t max_in_flight = 1024;  ///< per session
  std::size_t max_write_buffer = 1 << 18;
  bool admission_check = true;     ///< Thm. 3(3) rejection at the door
  std::size_t trace_ring = 0;      ///< >0: keep the last N trace events

  /// 0: one session inline on the socket thread. N >= 1: N shard threads,
  /// each running a session behind bounded channels; shard k journals to
  /// `<journal_dir>/shard<k>`.
  std::size_t shards = 0;
  std::size_t channel_capacity = 1024; ///< per-shard request channel slots
  int shard_poll_ms = 50;              ///< shard idle-poll cap (wall ms)

  // Single-engine backend (serve/sim_backend.hpp).
  std::string scheduler_name = "V-Dover";  ///< sched::full_lineup name
  cap::CapacityProfile capacity{1.0};
  double c_lo = 0.0;               ///< 0 → profile min rate
  double c_hi = 0.0;               ///< 0 → profile max rate
};

/// One decoded SUBMIT / CANCEL / QUERY. `conn`, `gen` and `seq` are opaque
/// routing state echoed back in replies.
struct Request {
  MsgType type = MsgType::kSubmit;
  int conn = -1;
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;
  std::uint64_t ticket = 0;   ///< CANCEL/QUERY; a shard's SUBMIT: global
  double workload = 0.0;      ///< kSubmit: p
  double rel_deadline = 0.0;  ///< kSubmit: d − r
  double value = 0.0;         ///< kSubmit: v
};

/// The server.* metric family. A shard session publishes each name with a
/// ".shard<k>" suffix; the front end counts the plain rollup names.
struct ServerMetricNames {
  explicit ServerMetricNames(const std::string& suffix = "")
      : submitted("server.jobs_submitted" + suffix),
        accepted("server.jobs_accepted" + suffix),
        rejected("server.jobs_rejected" + suffix),
        shed("server.jobs_shed" + suffix),
        completed("server.jobs_completed" + suffix),
        expired("server.jobs_expired" + suffix),
        cancelled("server.jobs_cancelled" + suffix),
        in_flight_peak("server.in_flight_peak" + suffix) {}
  std::string submitted, accepted, rejected, shed, completed, expired,
      cancelled, in_flight_peak;
};

/// Captures kComplete/kExpire events raised inside the engine so the session
/// can translate them into notifications after advance_to returns. Drained
/// in place (index + clear) so the buffer keeps its capacity across pumps.
class NotificationSink final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceKind::kComplete ||
        event.kind == obs::TraceKind::kExpire) {
      // Drained every pump; growth stops at the per-pump high-water.
      util::append(pending_, event);
    }
  }
  std::size_t size() const { return pending_.size(); }
  const obs::TraceEvent& operator[](std::size_t i) const {
    return pending_[i];
  }
  void clear() { pending_.clear(); }
  void reserve(std::size_t n) { pending_.reserve(n); }

 private:
  std::vector<obs::TraceEvent> pending_;
};

template <typename Backend, typename Reply>
class Session {
 public:
  using Config = typename Backend::Config;
  using Result = typename Backend::Result;

  /// `shard` < 0: an inline session journalling to config.journal_dir.
  /// `shard` = k >= 0: shard k of a threaded plane. The journal is opened
  /// here (throws on I/O failure); begin() must follow on the owning thread.
  Session(const Config& config, int shard, Clock& clock, Reply reply)
      : config_(config),
        backend_(config),
        gate_(backend_.c_lo(), config.admission_check, config.max_in_flight),
        bridge_(clock, config.accel),
        reply_(reply),
        remap_tickets_(shard >= 0),
        names_(shard >= 0 ? ".shard" + std::to_string(shard) : "") {
    tee_.add(&notifications_);
    if (config.trace_ring > 0) {
      ring_ = std::make_unique<obs::RingTraceBuffer>(config.trace_ring);
      tee_.add(ring_.get());
    }
    if (!config.journal_dir.empty()) {
      const std::string dir =
          shard < 0 ? config.journal_dir
                    : (std::filesystem::path(config.journal_dir) /
                       ("shard" + std::to_string(shard))).string();
      journal_ = backend_.open_journal(dir, config);
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Anchors virtual 0 at `epoch`, binds this thread's metrics shard
  /// (optional), pre-sizes the per-request tables, enters live mode.
  void begin(double epoch, obs::MetricsRegistry* metrics) {
    bridge_.start_at(epoch);
    if (metrics) {
      shard_ = &metrics->local();
      trace_bridge_ = util::alloc_unique<obs::TraceMetricsBridge>(*shard_);
      tee_.add(trace_bridge_.get());
    }
    backend_.attach_trace(&tee_);
    // Pre-size everything the request path touches: the in-flight tables
    // from max_in_flight, the dense per-job ones (routes_ is indexed by
    // JobId) from kSessionJobReserve. The warmed steady state then
    // allocates nothing (tests/hotpath_test.cpp).
    const auto n = static_cast<std::size_t>(config_.max_in_flight);
    backend_.reserve(n, kSessionJobReserve);
    routes_.reserve(kSessionJobReserve);
    notifications_.reserve(n);
    staged_.reserve(kMaxStagedAdmissions);
    held_.reserve(kMaxStagedAdmissions);
    if (remap_tickets_) by_ticket_.reserve(n);
    backend_.begin_live();
  }

  // sjs-hot-path-root
  void on_request(const Request& req) {
    switch (req.type) {
      case MsgType::kSubmit:
        handle_submit(req);
        return;
      case MsgType::kCancel:
        handle_cancel(req);
        return;
      case MsgType::kQuery:
        handle_query(req);
        return;
      default:
        SJS_CHECK_MSG(false, "session request is not SUBMIT/CANCEL/QUERY");
    }
  }

  /// Advances virtual time to the bridge's now and ships notifications.
  // sjs-hot-path-root
  void pump() {
    commit();
    backend_.advance_to(std::max(bridge_.virtual_now(), backend_.now()));
    dispatch_notifications();
  }

  /// Flushes the journal rows of the admissions since the last commit, then
  /// releases the replies held behind them, in order. If the flush fails,
  /// those admissions cannot be made durable: each is withdrawn and
  /// answered ERROR(kJournalFailed) instead of ACCEPTED, and the session
  /// starts draining. A no-op when nothing is held.
  // sjs-hot-path-root
  void commit() {
    if (staged_.empty()) return;
    bool durable = true;
    try {
      journal_->commit();
    } catch (const std::exception& e) {
      keep_journal_error(e);
      durable = false;
    }
    for (const Staged& s : staged_) {
      if (durable) {
        count_accepted(s.value);
      } else {
        // Not durable, so the client must not see ACCEPTED: withdraw it.
        routes_[static_cast<std::size_t>(s.id)].cancelled = true;
        backend_.cancel(s.id);
      }
    }
    staged_.clear();
    for (Held& h : held_) {
      if (!durable && h.msg.type == MsgType::kAccepted) {
        h.msg = journal_failed(h.msg.seq);
      }
      reply_.send(h.conn, h.gen, h.msg);
    }
    held_.clear();
    if (!durable) {
      dispatch_notifications();
      draining_ = true;
    }
  }

  /// Wall milliseconds until the next simulated event, capped at `cap_ms`.
  int wait_ms(int cap_ms) {
    const double next = backend_.next_event_time();
    if (!std::isfinite(next)) return cap_ms;
    const double ms = std::ceil(std::max(0.0, bridge_.wall_until(next)) * 1000.0);
    return static_cast<int>(std::min<double>(ms, static_cast<double>(cap_ms)));
  }

  /// Refuses every later submit as draining.
  void begin_drain() { draining_ = true; }

  /// Drain = fast-forward: absent new arrivals the future of the simulation
  /// is fully determined, so resolving the backlog now in virtual time yields
  /// the outcomes the session would have reached in real time. Then
  /// outcomes.csv, then the journal close.
  void finalize() {
    commit();
    backend_.finish(shard_);
    dispatch_notifications();
    if (journal_) {
      try {
        backend_.save_outcomes(
            (std::filesystem::path(journal_->dir()) / "outcomes.csv").string());
        journal_->close();
      } catch (const std::exception& e) {
        keep_journal_error(e);
      }
    }
    if (shard_) {
      shard_->set_gauge(names_.in_flight_peak,
                        static_cast<double>(in_flight_peak_));
    }
  }

  bool draining() const { return draining_; }
  /// Live counters (the body of STATS replies on an inline plane).
  StatsBody stats() const {
    StatsBody s = stats_;
    s.virtual_now = backend_.now();
    return s;
  }
  const Result& result() const { return backend_.result(); }
  const Backend& backend() const { return backend_; }
  /// The first journal failure; empty while the journal is healthy.
  const std::string& journal_error() const { return journal_error_; }
  /// The ring of recent trace events (empty unless trace_ring > 0).
  std::vector<obs::TraceEvent> recent_trace() const {
    return ring_ ? ring_->events() : std::vector<obs::TraceEvent>{};
  }

 private:
  /// Where to send a job's COMPLETED/EXPIRED notification; `gen` guards
  /// against conn-id reuse after a disconnect.
  struct Route {
    int conn = -1;
    std::uint64_t gen = 0;
    std::uint64_t seq = 0;     ///< the SUBMIT's seq, echoed in notifications
    std::uint64_t ticket = 0;  ///< wire ticket
    bool cancelled = false;
  };

  void handle_submit(const Request& req) {
    ++stats_.submitted;
    count(names_.submitted);
    Message r;
    r.seq = req.seq;
    const AdmissionGate::Decision verdict =
        gate_.evaluate(req.workload, req.rel_deadline, req.value,
                       bridge_.virtual_now(), backend_.now(), draining_,
                       stats_.in_flight);
    if (verdict.reply == MsgType::kRejected) {
      ++stats_.rejected;
      count(names_.rejected);
      r.type = MsgType::kRejected;
      r.code = static_cast<std::uint8_t>(verdict.reason);
      send(req.conn, req.gen, r);
      return;
    }
    if (verdict.reply == MsgType::kShed) {
      ++stats_.shed;
      count(names_.shed);
      r.type = MsgType::kShed;
      send(req.conn, req.gen, r);
      return;
    }
    const JobId id = backend_.admit(verdict.job);
    Route route;
    route.conn = req.conn;
    route.gen = req.gen;
    route.seq = req.seq;
    route.ticket = remap_tickets_ ? req.ticket : static_cast<std::uint64_t>(id);
    // Growth-to-high-water: begin() reserved kSessionJobReserve routes.
    util::append(routes_, route);
    SJS_CHECK(routes_.size() == static_cast<std::size_t>(id) + 1);
    if (remap_tickets_) by_ticket_.put(req.ticket, id);
    ++stats_.in_flight;
    in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
    r.type = MsgType::kAccepted;
    r.ticket = route.ticket;
    r.a = verdict.job.release;
    if (!journal_) {
      count_accepted(verdict.job.value);
      send(req.conn, req.gen, r);
      return;
    }
    // Durable before acknowledged: the row goes out with the batch's
    // commit(), which releases this ACCEPTED (or withdraws the job and
    // answers ERROR if the rows cannot be written).
    journal_->append_admit(backend_.job(id));
    // Growth-to-high-water: begin() reserved kMaxStagedAdmissions of each,
    // and the commit below keeps staged_ there.
    util::append(staged_, Staged{id, verdict.job.value});
    util::append(held_, Held{req.conn, req.gen, r});
    if (staged_.size() >= kMaxStagedAdmissions) commit();
  }

  void count_accepted(double value) {
    ++stats_.accepted;
    stats_.admitted_value += value;
    count(names_.accepted);
  }

  void handle_cancel(const Request& req) {
    // A cancel acts on committed admissions only (its own journal row
    // follows theirs), and its replies follow the held ones.
    commit();
    Message r;
    r.seq = req.seq;
    r.ticket = req.ticket;
    const JobId id = lookup(req.ticket);
    if (id == kNoJob || routes_[static_cast<std::size_t>(id)].cancelled ||
        !backend_.cancel(id)) {
      r.type = MsgType::kCancelFailed;
      send(req.conn, req.gen, r);
      return;
    }
    routes_[static_cast<std::size_t>(id)].cancelled = true;
    ++stats_.cancelled;
    count(names_.cancelled);
    if (journal_) {
      try {
        journal_->record_cancel(backend_.now(), id);
      } catch (const std::exception& e) {
        // The cancel took effect but is not durable: the journal would
        // disagree with the live session, so fail the session.
        fail_journal(e, req, r);
        return;
      }
    }
    r.type = MsgType::kCancelled;
    send(req.conn, req.gen, r);
    // cancel raised a kExpire notification; translate it now so the
    // in-flight count is current before the next admission decision.
    dispatch_notifications();
  }

  void handle_query(const Request& req) {
    Message r;
    r.type = MsgType::kQueryReply;
    r.seq = req.seq;
    r.ticket = req.ticket;
    const JobId id = lookup(req.ticket);
    const JobState state =
        id == kNoJob ? JobState::kUnknown : backend_.state(id, r.a);
    r.code = static_cast<std::uint8_t>(state);
    send(req.conn, req.gen, r);
  }

  void fail_journal(const std::exception& e, const Request& req, Message& r) {
    keep_journal_error(e);
    r.type = MsgType::kError;
    r.code = static_cast<std::uint8_t>(ErrorCode::kJournalFailed);
    send(req.conn, req.gen, r);
    dispatch_notifications();
    draining_ = true;
  }

  static Message journal_failed(std::uint64_t seq) {
    Message r;
    r.type = MsgType::kError;
    r.seq = seq;
    r.code = static_cast<std::uint8_t>(ErrorCode::kJournalFailed);
    return r;
  }

  /// Sends a reply now, or holds it behind the uncommitted journal rows so
  /// that it cannot overtake an ACCEPTED held there. Never commits: a
  /// failed commit dispatches notifications, which send through here.
  void send(int conn, std::uint64_t gen, const Message& m) {
    if (staged_.empty()) {
      reply_.send(conn, gen, m);
      return;
    }
    // Growth-to-high-water: the batch's replies, released by commit().
    util::append(held_, Held{conn, gen, m});
  }

  void keep_journal_error(const std::exception& e) {
    if (journal_error_.empty()) journal_error_ = e.what();
  }

  /// The local JobId behind a wire ticket, or kNoJob.
  JobId lookup(std::uint64_t ticket) const {
    if (remap_tickets_) return by_ticket_.get(ticket, kNoJob);
    return ticket < routes_.size() ? static_cast<JobId>(ticket) : kNoJob;
  }

  void dispatch_notifications() {
    // Index-based drain: clear() at the end keeps the buffer's capacity.
    for (std::size_t i = 0; i < notifications_.size(); ++i) {
      const obs::TraceEvent ev = notifications_[i];
      const auto id = static_cast<std::size_t>(ev.job);
      if (id >= routes_.size()) continue;
      const Route& route = routes_[id];
      if (route.cancelled) {
        // The client already got kCancelled (the forced expiry is internal),
        // or ERROR for an admission withdrawn by a failed commit, whose job
        // the engine expired at once, before its release.
        --stats_.in_flight;
        continue;
      }
      Message note;
      note.ticket = route.ticket;
      note.seq = route.seq;
      if (ev.kind == obs::TraceKind::kComplete) {
        ++stats_.completed;
        stats_.completed_value += ev.a;
        count(names_.completed);
        note.type = MsgType::kCompleted;
        note.a = ev.a;     // value collected
        note.b = ev.time;  // completion instant
      } else {
        ++stats_.expired;
        count(names_.expired);
        note.type = MsgType::kExpired;
        note.b = ev.time;
      }
      --stats_.in_flight;
      send(route.conn, route.gen, note);
    }
    notifications_.clear();
  }

  void count(const std::string& name) {
    if (shard_) shard_->count(name);
  }

  const Config& config_;
  Backend backend_;
  AdmissionGate gate_;
  ClockBridge bridge_;
  Reply reply_;
  std::unique_ptr<JournalWriter> journal_;
  std::string journal_error_;
  const bool remap_tickets_;
  const ServerMetricNames names_;
  /// The owning thread's metrics shard (bound in begin()), or nullptr.
  obs::MetricsRegistry::Shard* shard_ = nullptr;

  NotificationSink notifications_;
  std::unique_ptr<obs::RingTraceBuffer> ring_;
  std::unique_ptr<obs::TraceMetricsBridge> trace_bridge_;
  obs::TeeSink tee_;

  std::vector<Route> routes_;    // indexed by local JobId
  util::FlatU64Map by_ticket_;   // shard sessions: global ticket → JobId

  /// An admission whose journal row awaits commit().
  struct Staged {
    JobId id;
    double value;
  };
  /// A reply held until the journal rows before it are flushed.
  struct Held {
    int conn;
    std::uint64_t gen;
    Message msg;
  };
  std::vector<Staged> staged_;
  std::vector<Held> held_;

  bool draining_ = false;
  StatsBody stats_{};
  std::uint64_t in_flight_peak_ = 0;
};

}  // namespace sjs::serve
