// pb_load — the benchmark's open-loop load driver for sjs_serve.
//
// One process, one thread, kConnections sockets. Every request is
// written at its Poisson due instant regardless of how the server is doing
// (open loop), replies are read whenever they arrive, and a request's
// latency runs from its due instant to its first reply, so a stall charges
// every request that fell due during it. How late the driver itself wrote
// each request is reported as the lag. The driver spins rather than sleeps
// while requests remain, so it occupies one core for the stream's length.
//
// After the last request, the driver waits until every SUBMIT has its direct
// reply and only then sends DRAIN, then reads notifications until the server
// closes every connection. A connection that closes earlier means the server
// died: everything still outstanding is counted as lost, never retried.
//
// The stream is pb::serve_spec (stream.hpp): a warm-up and a nominal phase at
// pb::kNominalRate, then one step per --ladder rate.
//
//   pb_load --port=P [--seed=1] [--seconds=11] [--ladder=...]
//           [--query-share=0] [--out=result.json]
//   pb_load --selftest    (checks the open-loop timing against a stub server
//                          that stalls one reply)
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "serve/protocol.hpp"
#include "stream.hpp"
#include "util/cli.hpp"

namespace {

using sjs::serve::FrameDecoder;
using sjs::serve::JobState;
using sjs::serve::Message;
using sjs::serve::MsgType;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// First-reply outcome of one request.
enum class First : std::uint8_t {
  kNone,         // no reply yet
  kAccepted,     // SUBMIT → ACCEPTED
  kRejected,     // SUBMIT → REJECTED
  kShed,         // SUBMIT → SHED
  kQueryOk,      // QUERY → QUERY_REPLY naming a known job
  kQueryUnknown, // QUERY → QUERY_REPLY(unknown) for an acked ticket
  kError,        // ERROR / DRAINING in place of an answer
};

// Final notification of an accepted SUBMIT.
enum class Final : std::uint8_t { kNone, kCompleted, kExpired };

struct Conn {
  int fd = -1;
  bool open = false;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;   // queued bytes; out_pos = written prefix
  std::size_t out_pos = 0;
  std::uint64_t queued_total = 0;  // bytes ever queued
  std::uint64_t written_total = 0; // bytes ever written
  // (queued_total after the request's frame, request index)
  std::deque<std::pair<std::uint64_t, std::uint32_t>> in_flight;
};

constexpr int kConnections = 4;
// After the last request, give up this long after the last reply.
constexpr double kIdleTimeoutS = 10.0;
// Reply-latency limit that defines the knee (see kGoal).
constexpr double kLimitMs = 20.0;

struct DriverConfig {
  int port = 0;
  int connections = kConnections;
  int sndbuf = 0;                // >0: SO_SNDBUF for every socket (selftest)
  std::size_t first_step = 2;    // phases before this are warm-up + nominal
};

struct PhaseStats {
  double rate = 0.0;  // offered: requests / phase seconds
  std::size_t n = 0, failed = 0;
  double p50_ms = 0.0, p99_ms = 0.0, lag_p99_ms = 0.0;
  double submit_p50_ms = 0.0, submit_p99_ms = 0.0;
  double query_p50_ms = 0.0, query_p99_ms = 0.0;
  double p50_win_ms = 0.0, p99_win_ms = 0.0;  // median over kWindowS windows
  double within = 0.0;  // share of requests answered within the limit
  double submitted_value = 0.0, completed_value = 0.0;
  double score = 0.0;   // >= 0 when the step passes
  bool pass = false;
};

// A ladder step passes when this share of its requests is answered within
// the limit (failures and refusals miss it), i.e. its p95 stays under the
// limit. Not p99: a single growth stall of the server's dense per-job
// tables (tens of ms when a table doubles) refuses or delays about 1% of a
// step, which would decide the step by where the doubling lands rather
// than by sustained capacity. The step's p99 is reported beside.
constexpr double kGoal = 0.95;

// Window length for the windowed quantiles: p50/p99 are taken per window of
// due instants and the median over windows is reported beside the pooled
// figure, so that one stall moves one window rather than the whole phase.
constexpr double kWindowS = 0.5;

class Driver {
 public:
  Driver(const DriverConfig& config, const pb::StreamSpec& spec,
         std::vector<pb::Request> requests)
      : config_(config), spec_(spec), req_(std::move(requests)) {
    const std::size_t n = req_.size();
    sent_at_.assign(n, std::nan(""));
    first_at_.assign(n, std::nan(""));
    first_.assign(n, First::kNone);
    final_.assign(n, Final::kNone);
    ticket_.assign(n, 0);
    for (const auto& r : req_) {
      if (r.kind == pb::Kind::kSubmit) ++submits_;
    }
  }

  /// Connects, runs the whole stream, drains. Returns false only when the
  /// connections could not be opened.
  bool run();

  /// The run's counts, per-phase latencies and knee as one JSON object.
  std::string result_json() const;

  double latency_ms(std::size_t i) const {
    return failed(i) ? pb::kInf : (first_at_[i] - req_[i].due) * 1e3;
  }
  double lag_ms(std::size_t i) const {
    return std::isnan(sent_at_[i]) ? pb::kInf
                                   : (sent_at_[i] - req_[i].due) * 1e3;
  }
  const std::vector<pb::Request>& requests() const { return req_; }

 private:
  bool failed(std::size_t i) const {
    if (req_[i].kind == pb::Kind::kQuery) return first_[i] != First::kQueryOk;
    return first_[i] != First::kAccepted || final_[i] == Final::kNone;
  }
  /// Per-window p50 and p99 of phase `phase` (windows of kWindowS by due
  /// instant; a trailing partial window shorter than half is dropped).
  void window_quantiles(std::size_t phase, std::vector<double>* p50,
                        std::vector<double>* p99) const;
  /// Refused under overload: SHED, or a QUERY answered "unknown" for an
  /// acknowledged ticket (the sharded plane's answer when the shard's
  /// channel is full).
  bool refused(std::size_t i) const {
    return first_[i] == First::kShed || first_[i] == First::kQueryUnknown;
  }
  void queue(std::size_t conn, const Message& m, std::uint32_t index);
  void flush(std::size_t conn);
  void read_conn(std::size_t conn);
  void on_message(const Message& m, double t);
  void close_conn(std::size_t conn);

  DriverConfig config_;
  pb::StreamSpec spec_;
  std::vector<pb::Request> req_;
  std::vector<Conn> conns_;
  std::vector<double> sent_at_, first_at_;
  std::vector<First> first_;
  std::vector<Final> final_;
  std::vector<std::uint64_t> ticket_;
  double t0_ = 0.0;
  double last_progress_ = 0.0;
  std::size_t submits_ = 0, submit_replies_ = 0;
  std::uint64_t last_acked_ticket_ = 0;
  bool any_acked_ = false;
  bool drain_sent_ = false, drain_acked_ = false;
  bool closed_early_ = false, gave_up_ = false;
  std::uint64_t dup_finals_ = 0, stray_replies_ = 0, retargeted_queries_ = 0;
  double completed_value_ = 0.0, submitted_value_ = 0.0;
};

int connect_loopback(int port, int sndbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void Driver::queue(std::size_t conn, const Message& m, std::uint32_t index) {
  Conn& c = conns_[conn];
  std::uint8_t frame[sjs::serve::kMaxFrame];
  const std::size_t len = sjs::serve::encode_frame_into(frame, m);
  c.out.insert(c.out.end(), frame, frame + len);
  c.queued_total += len;
  c.in_flight.emplace_back(c.queued_total, index);
}

void Driver::flush(std::size_t conn) {
  Conn& c = conns_[conn];
  while (c.open && c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) close_conn(conn);
      break;
    }
    c.out_pos += static_cast<std::size_t>(n);
    c.written_total += static_cast<std::uint64_t>(n);
  }
  const double sent = now_s() - t0_;
  while (!c.in_flight.empty() && c.in_flight.front().first <= c.written_total) {
    const std::uint32_t i = c.in_flight.front().second;
    if (i < req_.size()) sent_at_[i] = sent;
    c.in_flight.pop_front();
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
}

void Driver::close_conn(std::size_t conn) {
  Conn& c = conns_[conn];
  if (!c.open) return;
  c.open = false;
  ::close(c.fd);
  c.fd = -1;
  if (!drain_acked_) closed_early_ = true;
}

void Driver::read_conn(std::size_t conn) {
  Conn& c = conns_[conn];
  std::uint8_t buf[1 << 16];
  while (c.open) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) close_conn(conn);
      return;
    }
    const double t = now_s() - t0_;
    c.decoder.feed(buf, static_cast<std::size_t>(n));
    Message m;
    FrameDecoder::Status st;
    while ((st = c.decoder.next(m)) == FrameDecoder::Status::kOk) {
      on_message(m, t);
    }
    if (st == FrameDecoder::Status::kMalformed) {
      ++stray_replies_;
      close_conn(conn);
      return;
    }
  }
}

void Driver::on_message(const Message& m, double t) {
  last_progress_ = t;
  if (m.type == MsgType::kDraining && m.seq == req_.size()) {
    drain_acked_ = true;
    return;
  }
  if (m.seq >= req_.size()) {
    ++stray_replies_;
    return;
  }
  const auto i = static_cast<std::size_t>(m.seq);
  const bool is_first = first_[i] == First::kNone;
  if (is_first) first_at_[i] = t;
  switch (m.type) {
    case MsgType::kAccepted:
      if (!is_first) break;
      first_[i] = First::kAccepted;
      ticket_[i] = m.ticket;
      last_acked_ticket_ = m.ticket;
      any_acked_ = true;
      ++submit_replies_;
      return;
    case MsgType::kRejected:
    case MsgType::kShed:
      if (!is_first) break;
      first_[i] = m.type == MsgType::kShed ? First::kShed : First::kRejected;
      ++submit_replies_;
      return;
    case MsgType::kCompleted:
    case MsgType::kExpired:
      if (first_[i] != First::kAccepted) break;
      if (final_[i] != Final::kNone) {
        ++dup_finals_;
        return;
      }
      final_[i] = m.type == MsgType::kCompleted ? Final::kCompleted
                                                : Final::kExpired;
      if (m.type == MsgType::kCompleted) completed_value_ += m.a;
      return;
    case MsgType::kQueryReply:
      if (!is_first) break;
      first_[i] = m.code == static_cast<std::uint8_t>(JobState::kUnknown)
                      ? First::kQueryUnknown
                      : First::kQueryOk;
      return;
    case MsgType::kError:
    case MsgType::kDraining:
      if (!is_first) break;
      first_[i] = First::kError;
      if (req_[i].kind == pb::Kind::kSubmit) ++submit_replies_;
      return;
    default:
      break;
  }
  ++stray_replies_;
}

bool Driver::run() {
  const int nconn = std::max(1, config_.connections);
  conns_.resize(static_cast<std::size_t>(nconn));
  for (auto& c : conns_) {
    c.fd = connect_loopback(config_.port, config_.sndbuf);
    if (c.fd < 0) return false;
    c.open = true;
  }
  std::vector<pollfd> fds(conns_.size());
  t0_ = now_s() + 0.02;
  last_progress_ = 0.0;
  std::size_t next = 0;
  const std::size_t n = req_.size();
  while (true) {
    double t = now_s() - t0_;
    // Write every request that is due — never wait for a reply first.
    while (next < n && req_[next].due <= t) {
      const pb::Request& r = req_[next];
      Message m;
      m.seq = next;
      if (r.kind == pb::Kind::kSubmit) {
        m.type = MsgType::kSubmit;
        m.a = r.workload;
        m.b = r.rel_deadline;
        m.c = r.value;
        submitted_value_ += r.value;
      } else {
        m.type = MsgType::kQuery;
        if (first_[r.target] == First::kAccepted) {
          m.ticket = ticket_[r.target];
        } else {
          // The named SUBMIT is not acknowledged yet (a stalled server):
          // ask about the newest acknowledged ticket instead.
          ++retargeted_queries_;
          m.ticket = any_acked_ ? last_acked_ticket_ : 0;
        }
      }
      queue(next % conns_.size(), m, static_cast<std::uint32_t>(next));
      ++next;
    }
    if (next == n && !drain_sent_ && submit_replies_ == submits_ &&
        conns_[0].open) {
      Message m;
      m.type = MsgType::kDrain;
      m.seq = n;
      queue(0, m, static_cast<std::uint32_t>(n));
      drain_sent_ = true;
    }
    for (std::size_t k = 0; k < conns_.size(); ++k) flush(k);

    bool any_open = false;
    for (const auto& c : conns_) any_open |= c.open;
    if (!any_open) break;
    if (next == n && t - last_progress_ > kIdleTimeoutS) {
      gave_up_ = true;
      break;
    }

    // While requests remain the loop spins (zero timeout): a sleeping
    // driver wakes late on an idle virtual machine, and that lateness would
    // be charged to the server.
    const double wait_s = next < n ? 0.0 : 0.001;
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      fds[k].fd = conns_[k].open ? conns_[k].fd : -1;
      fds[k].events = POLLIN;
      if (conns_[k].out_pos < conns_[k].out.size()) fds[k].events |= POLLOUT;
      fds[k].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(k);
    }
  }
  for (std::size_t k = 0; k < conns_.size(); ++k) {
    if (conns_[k].open) {
      ::close(conns_[k].fd);
      conns_[k].open = false;
    }
  }
  return true;
}

void Driver::window_quantiles(std::size_t phase, std::vector<double>* p50,
                              std::vector<double>* p99) const {
  std::vector<double> window;
  double start = std::nan(""), last = 0.0;
  const auto close_window = [&] {
    if (!window.empty()) {
      p50->push_back(pb::quantile(window, 0.50));
      p99->push_back(pb::quantile(window, 0.99));
    }
    window.clear();
  };
  for (std::size_t i = 0; i < req_.size(); ++i) {
    if (req_[i].phase != phase) continue;
    if (std::isnan(start)) start = req_[i].due;
    if (req_[i].due >= start + kWindowS) {
      close_window();
      start += kWindowS * std::floor((req_[i].due - start) / kWindowS);
    }
    window.push_back(latency_ms(i));
    last = req_[i].due;
  }
  if (last - start >= kWindowS / 2) close_window();
}

std::string Driver::result_json() const {
  const std::size_t n = req_.size();
  std::uint64_t accepted = 0, rejected = 0, shed = 0, errors = 0, lost = 0;
  std::uint64_t completed = 0, expired = 0, missing_finals = 0;
  std::uint64_t queries = 0, query_ok = 0, query_unknown = 0, query_lost = 0;
  std::uint64_t failed_total = 0;
  std::vector<double> lags;
  lags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lags.push_back(lag_ms(i));
    // A refusal on a ladder step is the server's defined answer to overload
    // and is charged to the knee (as a missed limit), not counted as a
    // failure. At the nominal rate it is a failure.
    if (failed(i) && !(refused(i) && req_[i].phase >= config_.first_step)) {
      ++failed_total;
    }
    if (req_[i].kind == pb::Kind::kQuery) {
      ++queries;
      if (first_[i] == First::kQueryOk) ++query_ok;
      else if (first_[i] == First::kQueryUnknown) ++query_unknown;
      else if (first_[i] == First::kNone) ++query_lost;
      else ++errors;
      continue;
    }
    switch (first_[i]) {
      case First::kAccepted:
        ++accepted;
        if (final_[i] == Final::kCompleted) ++completed;
        else if (final_[i] == Final::kExpired) ++expired;
        else ++missing_finals;
        break;
      case First::kRejected: ++rejected; break;
      case First::kShed: ++shed; break;
      case First::kNone: ++lost; break;
      default: ++errors; break;
    }
  }
  const std::uint64_t submits = static_cast<std::uint64_t>(submits_);
  // sent = accepted + rejected + shed + lost (errors count as rejected by
  // the server), and every accepted ticket got exactly one final.
  const bool accounting_ok =
      submits == accepted + rejected + shed + lost + errors &&
      dup_finals_ == 0 && missing_finals == 0 && stray_replies_ == 0;

  std::vector<PhaseStats> phases(spec_.phases.size());
  std::vector<std::vector<double>> all(phases.size()), sub(phases.size()),
      qry(phases.size()), lag(phases.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = req_[i].phase;
    const double l = latency_ms(i);
    all[p].push_back(l);
    (req_[i].kind == pb::Kind::kQuery ? qry : sub)[p].push_back(l);
    lag[p].push_back(lag_ms(i));
    if (failed(i)) ++phases[p].failed;
    if (l <= kLimitMs) phases[p].within += 1.0;
    if (req_[i].kind == pb::Kind::kSubmit) {
      phases[p].submitted_value += req_[i].value;
      if (final_[i] == Final::kCompleted) {
        phases[p].completed_value += req_[i].value;
      }
    }
  }
  std::string phase_json = "[";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseStats& s = phases[p];
    s.rate = static_cast<double>(all[p].size()) / spec_.phases[p].seconds;
    s.n = all[p].size();
    s.p50_ms = pb::quantile(all[p], 0.50);
    s.p99_ms = pb::quantile(all[p], 0.99);
    s.lag_p99_ms = pb::quantile(lag[p], 0.99);
    s.submit_p50_ms = pb::quantile(sub[p], 0.50);
    s.submit_p99_ms = pb::quantile(sub[p], 0.99);
    s.query_p50_ms = pb::quantile(qry[p], 0.50);
    s.query_p99_ms = pb::quantile(qry[p], 0.99);
    s.within = s.n > 0 ? s.within / static_cast<double>(s.n) : 0.0;
    std::vector<double> w50, w99;
    window_quantiles(p, &w50, &w99);
    s.p50_win_ms = pb::quantile(w50, 0.5);
    s.p99_win_ms = pb::quantile(w99, 0.5);
    // Distance to the pass line, scaled so that a share of 1 scores 1.
    s.score = s.n == 0 ? -1.0 : (s.within - kGoal) / (1.0 - kGoal);
    s.pass = s.score >= 0.0;
    pb::JsonObject o;
    o.num("rate", s.rate).count("n", s.n).count("failed", s.failed)
        .num("p50_ms", s.p50_ms).num("p99_ms", s.p99_ms)
        .num("lag_p99_ms", s.lag_p99_ms).num("p50_win_ms", s.p50_win_ms)
        .num("p99_win_ms", s.p99_win_ms)
        .num("submit_p50_ms", s.submit_p50_ms)
        .num("submit_p99_ms", s.submit_p99_ms)
        .num("query_p50_ms", s.query_p50_ms)
        .num("query_p99_ms", s.query_p99_ms).num("within", s.within)
        .num("score", s.score)
        .num("submitted_value", s.submitted_value)
        .num("completed_value", s.completed_value).flag("pass", s.pass);
    phase_json += (p ? ", " : "") + o.text();
  }
  phase_json += "]";

  // Knee: the highest ladder rate whose p95 stays under the limit, with
  // failures and refusals counted as misses. It is interpolated on the step
  // score between the highest passing step and the failing step above it,
  // so it moves continuously when a step crosses the line instead of
  // jumping a whole ladder step. Above the ladder's top it is reported as
  // the top (capped).
  double knee = 0.0;
  bool capped = false;
  const std::size_t first = config_.first_step;
  if (phases.size() > first) {
    std::size_t h = phases.size();
    for (std::size_t p = first; p < phases.size(); ++p) {
      if (phases[p].pass) h = p;
    }
    if (h == phases.size() - 1) {
      knee = phases.back().rate;
      capped = true;
    } else if (h == phases.size()) {
      // Nothing passes: interpolate from (rate 0, score 1).
      knee = phases[first].rate / (1.0 - phases[first].score);
    } else {
      const PhaseStats& a = phases[h];
      const PhaseStats& b = phases[h + 1];
      knee = a.rate + (b.rate - a.rate) * a.score / (a.score - b.score);
    }
  }

  pb::JsonObject o;
  o.count("requests", n).count("submits", submits).count("accepted", accepted)
      .count("rejected", rejected).count("shed", shed).count("errors", errors)
      .count("lost", lost).count("completed", completed)
      .count("expired", expired).count("missing_finals", missing_finals)
      .count("dup_finals", dup_finals_).count("stray_replies", stray_replies_)
      .count("queries", queries).count("query_ok", query_ok)
      .count("query_unknown", query_unknown).count("query_lost", query_lost)
      .count("retargeted_queries", retargeted_queries_)
      .count("failed", failed_total)
      .count("lost_replies", lost + missing_finals + query_lost)
      .num("lag_ms_p99", pb::quantile(lags, 0.99))
      .num("submitted_value", submitted_value_)
      .num("completed_value", completed_value_)
      .num("knee_rate", knee).flag("knee_capped", capped)
      .flag("drain_sent", drain_sent_).flag("drain_acked", drain_acked_)
      .flag("closed_early", closed_early_).flag("gave_up", gave_up_)
      .flag("accounting_ok", accounting_ok).num("limit_ms", kLimitMs)
      .raw("phases", phase_json);
  return o.text();
}

// --- Self-test --------------------------------------------------------------
//
// A forked stub server answers every SUBMIT with ACCEPTED + COMPLETED at
// once, except that before answering request `stall_at` it sleeps for
// `stall_ms` without reading. Its receive buffer and the driver's send
// buffer are tiny, so the driver's writes back up during the stall. The
// test passes when (1) requests that fell due during the stall carry the
// rest of the stall in their latency, measured from their due instants,
// and (2) the stall shows in the driver's lag p99.

constexpr std::size_t kStallAt = 800;
constexpr double kStallMs = 400.0;

void stub_server(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) ::_exit(2);
  FrameDecoder dec;
  std::uint8_t buf[4096];
  std::vector<std::uint8_t> out;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    dec.feed(buf, static_cast<std::size_t>(n));
    Message m;
    out.clear();
    bool drained = false;
    while (dec.next(m) == FrameDecoder::Status::kOk) {
      Message r;
      r.seq = m.seq;
      if (m.type == MsgType::kDrain) {
        r.type = MsgType::kDraining;
        sjs::serve::append_frame(out, r);
        drained = true;
        continue;
      }
      if (m.seq == kStallAt) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(kStallMs * 1e3)));
      }
      r.type = MsgType::kAccepted;
      r.ticket = m.seq;
      sjs::serve::append_frame(out, r);
      r.type = MsgType::kCompleted;
      r.a = m.c;
      sjs::serve::append_frame(out, r);
    }
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
      if (w <= 0) ::_exit(3);
      off += static_cast<std::size_t>(w);
    }
    if (drained) break;
  }
  ::close(fd);
  ::_exit(0);
}

int selftest() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int small = 2048;
  ::setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 4) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::perror("selftest listen");
    return 1;
  }
  const pid_t child = ::fork();
  if (child < 0) return 1;
  if (child == 0) stub_server(lfd);
  ::close(lfd);

  pb::StreamSpec spec;
  spec.phases.push_back({2000.0, 1.0});
  DriverConfig config;
  config.port = ntohs(addr.sin_port);
  config.connections = 1;
  config.sndbuf = 2048;
  config.first_step = 1;
  Driver driver(config, spec, pb::make_stream(spec, 11));
  const bool connected = driver.run();
  int status = 0;
  ::waitpid(child, &status, 0);
  if (!connected) {
    std::printf("selftest: FAIL (cannot connect to the stub)\n");
    return 1;
  }
  const auto& reqs = driver.requests();
  // Requests due in the first half of the stall must wait out the rest of
  // it; a driver timing from its send instant would report ~0 for them.
  const double stall_due = reqs[kStallAt].due;
  std::size_t checked = 0, short_changed = 0;
  for (std::size_t i = kStallAt; i < reqs.size(); ++i) {
    const double into_ms = (reqs[i].due - stall_due) * 1e3;
    if (into_ms > kStallMs / 2) break;
    ++checked;
    if (driver.latency_ms(i) < 0.9 * (kStallMs - into_ms)) ++short_changed;
  }
  std::vector<double> lags;
  for (std::size_t i = 0; i < reqs.size(); ++i) lags.push_back(driver.lag_ms(i));
  const double lag_p99 = pb::quantile(lags, 0.99);
  const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  checked > 50 && short_changed == 0 &&
                  lag_p99 >= kStallMs / 4;
  std::printf("selftest: %s: %zu requests due during the first half of a "
              "%.0f ms stalled reply, %zu under-charged; lag p99 %.1f ms; "
              "stall latency %.1f ms\n",
              ok ? "PASS" : "FAIL", checked, kStallMs, short_changed, lag_p99,
              driver.latency_ms(kStallAt));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  sjs::CliFlags flags;
  flags.add_int("port", 0, "sjs_serve port");
  flags.add_int("seed", 1, "stream seed");
  flags.add_double("seconds", 11.0, "wall seconds of the whole stream");
  flags.add_double_list("ladder", {}, "ladder step rates (requests/s)");
  flags.add_double("query-share", 0.0, "share of requests that are QUERY");
  flags.add_string("out", "", "write the result JSON here (default stdout)");
  flags.add_bool("selftest", false, "check the open-loop timing and exit");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (flags.get_bool("selftest")) return selftest();

  DriverConfig config;
  config.port = static_cast<int>(flags.get_int("port"));
  const pb::StreamSpec spec =
      pb::serve_spec(flags.get_double("seconds"), flags.get_double_list("ladder"),
                     flags.get_double("query-share"));
  Driver driver(config, spec,
                pb::make_stream(spec,
                                static_cast<std::uint64_t>(flags.get_int("seed"))));
  if (!driver.run()) {
    std::fprintf(stderr, "pb_load: cannot connect to port %d\n", config.port);
    return 1;
  }
  const std::string json = driver.result_json();
  if (flags.get_string("out").empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream(flags.get_string("out")) << json << "\n";
  }
  return 0;
}
