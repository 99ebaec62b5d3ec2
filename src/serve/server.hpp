// Server — the socket front end shared by every serving plane
// (docs/serving.md).
//
// An EventLoop accepts loopback connections speaking the length-prefixed
// protocol. The front end owns everything socket-side: accept, close,
// wake-ups, frame decoding, malformed frames, STATS, DRAIN, the bounded
// flush-then-shutdown drain, and the connection metrics. SUBMIT, CANCEL and
// QUERY go to a serve::Session (serve/session.hpp) over a Backend:
//
//   config.shards == 0   one session runs inline on the socket thread —
//                        sockets, engine and journal are touched only from
//                        the thread calling step()/run(), so the whole
//                        daemon is race-free by construction.
//   config.shards == N   N shard threads each run a session behind bounded
//                        conc::Channels; the socket thread is the acceptor:
//
//     acceptor ──Request───▶ shard k          (bounded MPSC, per shard)
//     shard k  ──ShardReply─▶ acceptor         (per-shard reply channel)
//
// Threaded routing is deterministic: the acceptor assigns each forwarded
// SUBMIT a dense global ticket (0, 1, 2, …) and sends it to shard
// conc::shard_of(ticket, N), so the placement of every job is a pure
// function of its submission index. CANCEL/QUERY route by the same
// function of the carried ticket. A SUBMIT that cannot be forwarded
// (request channel full) is SHED and consumes no ticket. The acceptor reads
// the clock once at start() and hands the same epoch to every shard, so
// virtual time is one timeline across the plane. It aggregates the
// plane-wide StatsBody from the reply stream and counts the plain server.*
// names; each shard counts its "<name>.shard<k>" breakdown. Refusals the
// acceptor decides itself (draining, full channel) appear only in the
// rollup.
//
// Drain (DRAIN request, watched shutdown fd, or a session's journal
// failure): stop listening, refuse submits, resolve the backlog (inline:
// Session::finalize; threaded: close the request channels in shard order,
// keep shipping replies until every shard has finalised and closed its
// reply channel, then join in shard order), flush client sockets — a peer
// that stops reading cannot wedge it: bounded spins, then drop — and shut
// down.
#pragma once

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "conc/channel.hpp"
#include "conc/shard_hash.hpp"
#include "conc/shard_set.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/sim_backend.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

/// A shard's reply plus its connection route; the acceptor checks the
/// connection's liveness and generation when it sends.
struct ShardReply {
  int conn = -1;
  std::uint64_t gen = 0;
  Message msg;
};

/// Encodes `m` on the stack and queues it on `conn` (no allocation: the
/// loop's send buffer keeps its capacity between requests).
void send_frame(EventLoop& loop, int conn, const Message& m);

/// Reply target of an inline session: the socket, if the connection
/// incarnation is still alive.
struct LoopReply {
  EventLoop* loop;
  const std::vector<std::uint64_t>* gens;
  void send(int conn, std::uint64_t gen, const Message& m) const {
    if (conn >= 0 && static_cast<std::size_t>(conn) < gens->size() &&
        loop->conn_open(conn) && (*gens)[static_cast<std::size_t>(conn)] == gen) {
      send_frame(*loop, conn, m);
    }
  }
};

/// Reply target of a shard session: the shard's reply channel.
struct ChannelReply {
  conc::Channel<ShardReply>* channel;
  /// Commits a reply, waiting out transient fullness. The channel is sized
  /// for the steady state; it fills only while the acceptor stops draining,
  /// and the acceptor never blocks on a request channel (a full one sheds),
  /// so it always returns to its poll loop and consumes replies.
  void send(int conn, std::uint64_t gen, const Message& m) const {
    const ShardReply rep{conn, gen, m};
    while (true) {
      const conc::SendStatus st = channel->try_send(rep);
      if (st == conc::SendStatus::kOk) return;
      SJS_CHECK_MSG(st != conc::SendStatus::kClosed,
                    "shard reply channel closed while serving");
      ::poll(nullptr, 0, 1);
    }
  }
};

template <typename Backend>
class Server final : public EventLoop::Handler {
 public:
  using Config = typename Backend::Config;
  using Result = typename Backend::Result;

  /// The clock is injected (SystemClock for the daemon, FakeClock in tests)
  /// and must outlive the server. `metrics` is optional; server.* series
  /// (and the backend's own) are published to it.
  Server(Config config, Clock& clock, obs::MetricsRegistry* metrics = nullptr)
      : config_(std::move(config)),
        clock_(&clock),
        bridge_(clock, config_.accel),
        loop_(*this),
        metrics_(metrics) {
    if (metrics_) metrics_shard_ = &metrics_->local();
    loop_.set_max_write_buffer(config_.max_write_buffer);
  }

  ~Server() override {
    // A still-serving threaded plane must not hang the destructor: close the
    // inputs so every shard exits, and keep consuming replies so no shard
    // waits on a full reply channel meanwhile. ShardSet then joins. (A
    // failed start() spawned no shard thread, so there is nothing to wait
    // for.)
    if (!started_) return;
    for (auto& s : shards_) s->requests.close();
    while (!all_replies_drained()) {
      drain_replies();
      ::poll(nullptr, 0, 1);
    }
  }

  /// Opens the journal(s), binds the listener, anchors virtual time, and
  /// enters live mode (spawning the shards). Returns the bound port.
  int start() {
    SJS_CHECK_MSG(!started_, "Server::start called twice");
    if (config_.shards == 0) {
      inline_ = std::make_unique<Session<Backend, LoopReply>>(
          config_, -1, *clock_, LoopReply{&loop_, &conn_gens_});
    } else {
      for (std::size_t k = 0; k < config_.shards; ++k) {
        shards_.push_back(std::make_unique<Shard>(config_, k, *clock_));
        loop_.watch(shards_[k]->replies.wake_fd());
      }
      // Pre-size the per-ticket tables (indexed by global ticket) for every
      // shard's dense reservation (kSessionJobReserve); growth past this
      // total is amortized, not per-request.
      const std::size_t n = kSessionJobReserve * config_.shards;
      ticket_shard_.reserve(n);
      ticket_value_.reserve(n);
    }
    const int port = loop_.listen_loopback(config_.port);
    // ONE clock read anchors the whole plane.
    const double epoch = clock_->now();
    bridge_.start_at(epoch);
    if (inline_) {
      inline_->begin(epoch, metrics_);
    } else {
      threads_.spawn(config_.shards, [this, epoch](std::size_t k) {
        serve_shard(*shards_[k], epoch);
      });
    }
    started_ = true;
    return port;
  }

  /// One pump cycle: advance virtual time, deliver notifications and shard
  /// replies, poll sockets (at most `max_wait_ms`), dispatch requests; once
  /// draining, finish the sessions and flush. Returns false once fully
  /// drained (run() just loops on this).
  // sjs-hot-path-root
  bool step(int max_wait_ms = 50) {
    SJS_CHECK_MSG(started_, "Server::step before start()");
    if (finished_) return false;
    if (!settled_) {
      if (inline_) {
        step_inline(max_wait_ms);
      } else {
        step_threaded(max_wait_ms);
      }
    }
    if (settled_) {
      if (loop_.writes_pending() && loop_.open_conn_count() > 0 &&
          flush_spins_ < 200) {
        ++flush_spins_;
        loop_.poll_once(std::min(max_wait_ms, 10));
      } else {
        if (!inline_) {
          set_gauge(rollup_.in_flight_peak,
                    static_cast<double>(in_flight_peak_));
        }
        set_gauge("server.write_buffer_peak",
                  static_cast<double>(loop_.write_buffer_peak()));
        loop_.shutdown();
        finished_ = true;
      }
    }
    return !finished_;
  }

  /// Serves until drained.
  void run() {
    while (step()) {
    }
  }

  /// Initiates the graceful drain; step() completes it. Callable from a
  /// request handler or after a signal wake.
  void request_drain() {
    if (draining_) return;
    draining_ = true;
    loop_.stop_listening();
    if (inline_) inline_->begin_drain();
    // Close the request channels in shard order — the deterministic half of
    // the drain contract (ShardSet::join is the other half).
    for (auto& s : shards_) s->requests.close();
  }

  bool draining() const { return draining_; }
  bool finished() const { return finished_; }

  /// Plane-wide counters (also the body of STATS replies). On a threaded
  /// plane `virtual_now` is the acceptor's reading until the shards join.
  StatsBody stats() {
    if (inline_) return inline_->stats();
    StatsBody s = stats_;
    if (!settled_) s.virtual_now = bridge_.virtual_now();
    return s;
  }

  /// Session k's final result and backend; valid once finished().
  const Result& result(std::size_t k = 0) const {
    return inline_ ? inline_->result() : shards_[k]->session.result();
  }
  const Backend& backend(std::size_t k = 0) const {
    return inline_ ? inline_->backend() : shards_[k]->session.backend();
  }
  /// 1 for an inline plane.
  std::size_t shard_count() const { return inline_ ? 1 : shards_.size(); }

  int port() const { return loop_.port(); }
  /// The journal directory (a threaded plane's root: shard k writes
  /// `<root>/shard<k>`); empty when journalling is off.
  const std::string& journal_dir() const { return config_.journal_dir; }
  /// Non-empty once a journal append failed; the failing request was
  /// answered ERROR(kJournalFailed) and the plane began draining. Callers
  /// (sjs_serve) should exit non-zero after the drain completes.
  const std::string& journal_error() const {
    return inline_ ? inline_->journal_error() : journal_error_;
  }
  /// Recent trace events of an inline session (empty unless trace_ring > 0).
  std::vector<obs::TraceEvent> recent_trace() const {
    return inline_ ? inline_->recent_trace() : std::vector<obs::TraceEvent>{};
  }

  /// Registers `fd` (e.g. a signal self-pipe); when it becomes readable the
  /// server drains it and initiates a drain.
  void watch_shutdown_fd(int fd) { loop_.watch(fd); }

  // EventLoop::Handler:
  void on_accept(int conn) override {
    // Per-connection slot setup, not per-request steady state; the tables
    // grow to the concurrent-connection high-water. reset() keeps the
    // recycled decoder's buffer capacity.
    const auto i = static_cast<std::size_t>(conn);
    util::grow_to_index(decoders_, i);
    util::grow_to_index_fill(conn_gens_, i, std::uint64_t{0});
    decoders_[i].reset();
    count("server.connections");
  }

  void on_data(int conn, const std::uint8_t* data, std::size_t size) override {
    FrameDecoder& dec = decoders_[static_cast<std::size_t>(conn)];
    dec.feed(data, size);
    Message m;
    while (true) {
      const FrameDecoder::Status st = dec.next(m);
      if (st == FrameDecoder::Status::kNeedMore) {
        // End of this read's requests: one journal flush for all of them,
        // before any of their replies can reach the socket.
        commit_inline();
        return;
      }
      if (st == FrameDecoder::Status::kMalformed) {
        count("server.malformed_frames");
        refuse(conn, 0, ErrorCode::kMalformedFrame);
        return;
      }
      handle_message(conn, m);
      if (!loop_.conn_open(conn)) return;
    }
  }

  void on_close(int conn, bool overflow) override {
    ++conn_gens_[static_cast<std::size_t>(conn)];
    if (overflow) count("server.write_overflows");
  }

  void on_wake(int fd) override {
    for (auto& s : shards_) {
      if (s->replies.wake_fd() == fd) {
        // Re-arm now (poll is level-triggered); step() pops the replies.
        s->replies.drain_wakeups();
        return;
      }
    }
    // A shutdown fd (signal self-pipe): drain it and start the drain.
    char buf[64];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
    request_drain();
  }

 private:
  /// One shard of a threaded plane: its session and the two channels that
  /// are the only state it shares with the acceptor.
  struct Shard {
    Shard(const Config& config, std::size_t k, Clock& clock)
        : requests(config.channel_capacity),
          // Sized so a healthy plane never fills it: each request yields at
          // most one direct reply, and at most max_in_flight admitted jobs
          // can have an unshipped notification at once.
          replies(config.channel_capacity + config.max_in_flight + 8),
          session(config, static_cast<int>(k), clock, ChannelReply{&replies}) {}
    conc::Channel<Request> requests;
    conc::Channel<ShardReply> replies;
    Session<Backend, ChannelReply> session;
  };

  void step_inline(int max_wait_ms) {
    inline_->pump();
    if (!draining_) {
      // Sleep until the next simulated event is due or a socket fires.
      loop_.poll_once(inline_->wait_ms(max_wait_ms));
      if (inline_->draining()) request_drain();  // journal failure
      if (!draining_) return;
      inline_->pump();
    }
    inline_->finalize();
    settled_ = true;
  }

  void step_threaded(int max_wait_ms) {
    drain_replies();
    loop_.poll_once(draining_ ? std::min(max_wait_ms, 10) : max_wait_ms);
    drain_replies();
    if (!draining_ || !all_replies_drained()) return;
    // Every shard has finalised and closed its reply channel, and every
    // reply has been shipped or dropped — joining cannot block.
    threads_.join();
    settled_ = true;
    for (const auto& s : shards_) {
      stats_.virtual_now =
          std::max(stats_.virtual_now, s->session.backend().now());
      if (journal_error_.empty()) journal_error_ = s->session.journal_error();
    }
  }

  /// Shard thread body: serves until the request channel drains, then
  /// finalises and closes the reply channel.
  // sjs-hot-path-root
  void serve_shard(Shard& shard, double epoch) {
    Session<Backend, ChannelReply>& session = shard.session;
    session.begin(epoch, metrics_);
    while (true) {
      session.pump();
      Request req;
      conc::PopStatus st;
      while ((st = shard.requests.try_pop(req)) == conc::PopStatus::kOk) {
        session.on_request(req);
      }
      session.commit();
      if (st == conc::PopStatus::kDrained) break;
      session.pump();
      // Park until the next simulated event is due or the acceptor signals.
      struct pollfd pfd;
      pfd.fd = shard.requests.wake_fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      ::poll(&pfd, 1, session.wait_ms(config_.shard_poll_ms));
      if ((pfd.revents & POLLIN) != 0) shard.requests.drain_wakeups();
    }
    session.pump();
    session.finalize();
    shard.replies.close();
  }

  void handle_message(int conn, const Message& m) {
    switch (m.type) {
      case MsgType::kSubmit:
      case MsgType::kCancel:
      case MsgType::kQuery: {
        Request req;
        req.type = m.type;
        req.conn = conn;
        req.gen = conn_gens_[static_cast<std::size_t>(conn)];
        req.seq = m.seq;
        req.ticket = m.ticket;
        req.workload = m.a;
        req.rel_deadline = m.b;
        req.value = m.c;
        if (inline_) {
          inline_->on_request(req);
        } else if (m.type == MsgType::kSubmit) {
          forward_submit(req);
        } else {
          forward_by_ticket(req);
        }
        return;
      }
      case MsgType::kStats: {
        commit_inline();  // replies keep request order
        Message r;
        r.type = MsgType::kStatsReply;
        r.seq = m.seq;
        r.stats = stats();
        send_frame(loop_, conn, r);
        return;
      }
      case MsgType::kDrain: {
        commit_inline();
        Message r;
        r.type = MsgType::kDraining;
        r.seq = m.seq;
        send_frame(loop_, conn, r);
        request_drain();
        return;
      }
      default:
        refuse(conn, m.seq, ErrorCode::kNotARequest);
        return;
    }
  }

  /// Answers ERROR(code) and hangs up on the offender.
  void refuse(int conn, std::uint64_t seq, ErrorCode code) {
    commit_inline();  // close_conn flushes the socket's queued replies
    Message err;
    err.type = MsgType::kError;
    err.seq = seq;
    err.code = static_cast<std::uint8_t>(code);
    send_frame(loop_, conn, err);
    loop_.close_conn(conn);
  }

  /// An inline session's group commit (Session::commit); replies the front
  /// end writes itself must not overtake the ones the session holds.
  void commit_inline() {
    if (inline_) inline_->commit();
  }

  void forward_submit(Request& req) {
    ++stats_.submitted;
    count(rollup_.submitted);
    Message r;
    r.seq = req.seq;
    if (draining_) {
      ++stats_.rejected;
      count(rollup_.rejected);
      r.type = MsgType::kRejected;
      r.code = static_cast<std::uint8_t>(RejectReason::kDraining);
      send_frame(loop_, req.conn, r);
      return;
    }
    // The next dense ticket decides the shard; the two-phase send means a
    // full channel sheds WITHOUT consuming the ticket, keeping the
    // ticket→shard map a pure function of the forwarded-submission index.
    req.ticket = ticket_shard_.size();
    const std::size_t k = conc::shard_of(req.ticket, shards_.size());
    auto& ch = shards_[k]->requests;
    conc::Channel<Request>::Reservation res;
    if (ch.reserve(res) != conc::SendStatus::kOk) {  // kFull (or drain race)
      ++stats_.shed;
      count(rollup_.shed);
      r.type = MsgType::kShed;
      send_frame(loop_, req.conn, r);
      return;
    }
    ch.commit(res, req);
    // Growth-to-high-water: start() reserved a full plane's worth.
    util::append(ticket_shard_, static_cast<std::uint32_t>(k));
    util::append(ticket_value_, req.value);
  }

  void forward_by_ticket(const Request& req) {
    if (req.ticket < ticket_shard_.size() &&
        shards_[ticket_shard_[req.ticket]]->requests.try_send(req) ==
            conc::SendStatus::kOk) {
      return;
    }
    // Unknown ticket, full channel, or draining: answer locally — a cancel
    // honestly fails, a query reads as unknown.
    Message r;
    r.seq = req.seq;
    r.ticket = req.ticket;
    if (req.type == MsgType::kCancel) {
      r.type = MsgType::kCancelFailed;
    } else {
      r.type = MsgType::kQueryReply;
      r.code = static_cast<std::uint8_t>(JobState::kUnknown);
    }
    send_frame(loop_, req.conn, r);
  }

  /// Pops every deliverable reply from every shard and dispatches it.
  void drain_replies() {
    for (auto& s : shards_) {
      s->replies.drain_wakeups();
      ShardReply rep;
      while (s->replies.try_pop(rep) == conc::PopStatus::kOk) {
        dispatch_reply(*s, rep);
      }
    }
  }

  bool all_replies_drained() const {
    for (const auto& s : shards_) {
      if (!s->replies.drained()) return false;
    }
    return true;
  }

  /// Folds one shard reply into the plane-wide stats and rollup metrics,
  /// then ships it if its connection incarnation is still alive.
  void dispatch_reply(const Shard& shard, const ShardReply& rep) {
    const Message& m = rep.msg;
    switch (m.type) {
      case MsgType::kAccepted:
        ++stats_.accepted;
        stats_.admitted_value += ticket_value_[m.ticket];
        ++stats_.in_flight;
        in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
        count(rollup_.accepted);
        break;
      case MsgType::kRejected:
        ++stats_.rejected;
        count(rollup_.rejected);
        break;
      case MsgType::kShed:  // per-shard max_in_flight backpressure
        ++stats_.shed;
        count(rollup_.shed);
        break;
      case MsgType::kCompleted:
        ++stats_.completed;
        stats_.completed_value += m.a;
        --stats_.in_flight;
        count(rollup_.completed);
        break;
      case MsgType::kExpired:
        ++stats_.expired;
        --stats_.in_flight;
        count(rollup_.expired);
        break;
      case MsgType::kCancelled:
        // The shard suppresses the cancellation's internal expiry, so this
        // is the only in-flight decrement the acceptor sees for the job.
        ++stats_.cancelled;
        --stats_.in_flight;
        count(rollup_.cancelled);
        break;
      case MsgType::kError:
        // The shard's journal failed. It wrote journal_error() before
        // committing this reply and never rewrites it, so reading it here
        // is ordered by the channel.
        if (journal_error_.empty()) journal_error_ = shard.session.journal_error();
        request_drain();
        break;
      default:  // kCancelFailed, kQueryReply: no aggregate effect
        break;
    }
    const auto c = static_cast<std::size_t>(rep.conn);
    if (rep.conn >= 0 && c < conn_gens_.size() && loop_.conn_open(rep.conn) &&
        conn_gens_[c] == rep.gen) {
      send_frame(loop_, rep.conn, m);
    }
  }

  void count(std::string_view name) {
    if (metrics_shard_) metrics_shard_->count(name);
  }
  void set_gauge(std::string_view name, double value) {
    if (metrics_shard_) metrics_shard_->set_gauge(name, value);
  }

  Config config_;
  Clock* clock_;
  ClockBridge bridge_;
  EventLoop loop_;
  obs::MetricsRegistry* metrics_;
  obs::MetricsRegistry::Shard* metrics_shard_ = nullptr;  ///< this thread's
  const ServerMetricNames rollup_;

  std::unique_ptr<Session<Backend, LoopReply>> inline_;
  std::vector<std::unique_ptr<Shard>> shards_;
  conc::ShardSet threads_;  // after shards_: joins before they are destroyed

  std::vector<FrameDecoder> decoders_;       // indexed by conn id
  std::vector<std::uint64_t> conn_gens_;     // bumped on close
  std::vector<std::uint32_t> ticket_shard_;  // threaded: by global ticket
  std::vector<double> ticket_value_;         // threaded: submit value

  bool started_ = false;
  bool draining_ = false;
  bool settled_ = false;  ///< sessions finalised (threaded: joined)
  bool finished_ = false;
  int flush_spins_ = 0;

  StatsBody stats_{};  ///< threaded: aggregated from the reply stream
  std::uint64_t in_flight_peak_ = 0;
  std::string journal_error_;  ///< threaded: the first shard failure
};

/// The single-engine planes (inline and sharded).
using SimServer = Server<SimBackend>;

}  // namespace sjs::serve
