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
// Journal failure policy (one policy on every plane): an admit or cancel
// that cannot be made durable is answered ERROR(kJournalFailed), the FIRST
// failure is kept in journal_error(), and the session starts draining —
// every later submit is refused as draining. The front end notices and
// drains the whole plane; sjs_serve then exits non-zero.
//
// Backend seam (a template parameter, so the request path has no virtual
// call). A Backend provides:
//   using Config, Result;  Backend(const Config&)
//   JobId admit(const Job&)             append + admit_live
//   const Job& job(JobId) const
//   bool cancel(JobId)                  cancel_live
//   void advance_to(double);  double next_event_time() const;  double now() const
//   JobState state(JobId, double& remaining) const
//   void reserve(std::size_t);  void attach_trace(obs::TraceSink*);  void begin_live()
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
    // Pre-size everything the request path touches from max_in_flight: the
    // warmed steady state then allocates nothing (tests/hotpath_test.cpp).
    // Sessions admitting more than that in TOTAL grow the dense per-job
    // tables past the pre-size — amortized, not per-request.
    const auto n = static_cast<std::size_t>(config_.max_in_flight);
    backend_.reserve(n);
    routes_.reserve(n);
    notifications_.reserve(n);
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
    backend_.advance_to(std::max(bridge_.virtual_now(), backend_.now()));
    dispatch_notifications();
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
      reply_.send(req.conn, req.gen, r);
      return;
    }
    if (verdict.reply == MsgType::kShed) {
      ++stats_.shed;
      count(names_.shed);
      r.type = MsgType::kShed;
      reply_.send(req.conn, req.gen, r);
      return;
    }
    const JobId id = backend_.admit(verdict.job);
    Route route;
    route.conn = req.conn;
    route.gen = req.gen;
    route.seq = req.seq;
    route.ticket = remap_tickets_ ? req.ticket : static_cast<std::uint64_t>(id);
    // Growth-to-high-water: begin() reserved max_in_flight routes.
    util::append(routes_, route);
    SJS_CHECK(routes_.size() == static_cast<std::size_t>(id) + 1);
    if (remap_tickets_) by_ticket_.put(req.ticket, id);
    ++stats_.in_flight;
    in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
    if (journal_) {
      try {
        journal_->record_admit(backend_.job(id));
      } catch (const std::exception& e) {
        // The admit cannot be made durable, so the client must not see
        // ACCEPTED: withdraw the job and fail the session.
        routes_[static_cast<std::size_t>(id)].cancelled = true;
        backend_.cancel(id);
        fail_journal(e, req, r);
        return;
      }
    }
    ++stats_.accepted;
    stats_.admitted_value += verdict.job.value;
    count(names_.accepted);
    r.type = MsgType::kAccepted;
    r.ticket = route.ticket;
    r.a = verdict.job.release;
    reply_.send(req.conn, req.gen, r);
  }

  void handle_cancel(const Request& req) {
    Message r;
    r.seq = req.seq;
    r.ticket = req.ticket;
    const JobId id = lookup(req.ticket);
    if (id == kNoJob || routes_[static_cast<std::size_t>(id)].cancelled ||
        !backend_.cancel(id)) {
      r.type = MsgType::kCancelFailed;
      reply_.send(req.conn, req.gen, r);
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
    reply_.send(req.conn, req.gen, r);
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
    reply_.send(req.conn, req.gen, r);
  }

  void fail_journal(const std::exception& e, const Request& req, Message& r) {
    keep_journal_error(e);
    r.type = MsgType::kError;
    r.code = static_cast<std::uint8_t>(ErrorCode::kJournalFailed);
    reply_.send(req.conn, req.gen, r);
    dispatch_notifications();
    draining_ = true;
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
        if (route.cancelled) {
          // The client already got kCancelled; the forced expiry is internal.
          --stats_.in_flight;
          continue;
        }
        ++stats_.expired;
        count(names_.expired);
        note.type = MsgType::kExpired;
        note.b = ev.time;
      }
      --stats_.in_flight;
      reply_.send(route.conn, route.gen, note);
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

  bool draining_ = false;
  StatsBody stats_{};
  std::uint64_t in_flight_peak_ = 0;
};

}  // namespace sjs::serve
