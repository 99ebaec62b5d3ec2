// Integration tests for the real-time admission service (src/serve/).
//
// The flagship test drives a SimServer over a real loopback socket
// under a FakeClock — fully deterministic, no wall-clock dependence — and
// then proves the journal-replay contract: loading the journal directory as
// an instance bundle and re-running it through a fresh engine + scheduler
// reproduces the live session's outcomes, completion times, and captured
// value BIT-EXACTLY. A second copy of the same scripted session must produce
// a byte-identical journal (determinism across runs).
//
// The remaining tests cover the protocol-visible behaviours one at a time:
// Thm. 3(3) admission rejection, max-in-flight shedding, cancel semantics,
// QUERY/STATS, malformed-frame connection teardown, a threaded real-clock
// loadgen session (the TSan CI job runs this file), and the journal-failure
// policy on every plane (inline, two shard threads, fleet).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fleet_backend.hpp"
#include "jobs/bundle.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using sjs::serve::FakeClock;
using sjs::serve::FrameDecoder;
using sjs::serve::JobState;
using sjs::serve::Message;
using sjs::serve::MsgType;
using sjs::serve::RejectReason;
using sjs::serve::ServerConfig;
using sjs::serve::SimServer;

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::unique_ptr<sjs::sim::Scheduler> make_scheduler(const std::string& name,
                                                    double c_lo, double c_hi) {
  const auto lineup = sjs::sched::full_lineup(c_lo, c_hi);
  const auto* factory = sjs::sched::find_factory(lineup, name);
  SJS_CHECK_MSG(factory != nullptr, "unknown scheduler in test");
  return factory->make();
}

/// A raw nonblocking loopback client. Lives in the same thread as the
/// server: every await interleaves server.step(0) with socket reads, so the
/// whole exchange is single-threaded and deterministic under FakeClock.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SJS_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    SJS_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SJS_CHECK(::fcntl(fd_, F_SETFL, O_NONBLOCK) == 0);
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send(const Message& m) { send_bytes(sjs::serve::encode_frame(m)); }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      SJS_CHECK_MSG(n > 0, "test client send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Drains readable bytes into the decoder; true if the peer closed.
  bool read_socket() {
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        Message m;
        while (decoder_.next(m) == FrameDecoder::Status::kOk) {
          inbox.push_back(m);
        }
        continue;
      }
      if (n == 0) return true;  // orderly close
      return false;             // EAGAIN: nothing more right now
    }
  }

  /// Steps the server (granting each step `step_ms` of poll time) until a
  /// message matching `pred` arrives; fails the test (and returns a default
  /// Message) after `spins` fruitless cycles. A threaded plane needs
  /// step_ms > 0 so the acceptor waits for its shards' replies.
  template <typename Server, typename Pred>
  Message await(Server& server, Pred pred, int spins = 1000, int step_ms = 0) {
    for (int i = 0; i < spins; ++i) {
      for (std::size_t j = scanned_; j < inbox.size(); ++j) {
        if (pred(inbox[j])) {
          scanned_ = j + 1;
          return inbox[j];
        }
      }
      scanned_ = inbox.size();
      server.step(step_ms);
      read_socket();
    }
    ADD_FAILURE() << "no matching reply after " << spins << " spins";
    return Message{};
  }

  template <typename Server>
  Message await_seq(Server& server, std::uint64_t seq, int step_ms = 0) {
    return await(
        server, [seq](const Message& m) { return m.seq == seq; }, 1000,
        step_ms);
  }

  std::vector<Message> inbox;

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::size_t scanned_ = 0;  // inbox prefix already handed out by await()
};

Message submit_msg(std::uint64_t seq, double workload, double rel_deadline,
                   double value) {
  Message m;
  m.type = MsgType::kSubmit;
  m.seq = seq;
  m.a = workload;
  m.b = rel_deadline;
  m.c = value;
  return m;
}

constexpr double kBandLo = 0.5;  // band floor below the unit capacity path:
constexpr double kBandHi = 1.0;  // admission windows have real slack to cut

ServerConfig scripted_config(const std::string& journal_dir) {
  ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = sjs::cap::CapacityProfile(1.0);
  config.c_lo = kBandLo;
  config.c_hi = kBandHi;
  config.journal_dir = journal_dir;
  return config;
}

/// What one scripted live session leaves behind, copied out before the
/// server is destroyed so replay comparisons can run afterwards.
struct SessionOutput {
  sjs::sim::SimResult live;
  std::vector<sjs::Job> jobs;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t notified_completed = 0;
  std::uint64_t notified_expired = 0;
};

/// Drives one fixed 60-submission session (deterministic Rng shapes, every
/// 10th submission deliberately inadmissible) against a FakeClock server,
/// drains it, and returns the live result. Identical inputs every call —
/// the determinism test runs it twice and diffs the journals.
SessionOutput run_scripted_session(const std::string& journal_dir) {
  FakeClock clock;
  SimServer server(scripted_config(journal_dir), clock);
  const int port = server.start();
  TestClient client(port);

  sjs::Rng rng(4242);
  SessionOutput out;
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    // ~20 submissions per virtual second against unit capacity with mean
    // workload 0.05: the processor saturates, so V-Dover must abandon work
    // and both COMPLETED and EXPIRED notifications occur.
    clock.advance(rng.exponential_rate(20.0));
    const double workload = rng.exponential_mean(0.05);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / kBandLo   // fails Thm. 3(3)
                              : rng.uniform(1.05, 3.0) * workload / kBandLo;
    const double value = workload * rng.uniform(1.0, 7.0);
    client.send(submit_msg(++seq, workload, window, value));
    const Message r = client.await_seq(server, seq);
    if (sabotage) {
      EXPECT_EQ(r.type, MsgType::kRejected);
      EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));
      ++out.rejected;
    } else {
      EXPECT_EQ(r.type, MsgType::kAccepted);
      ++out.accepted;
    }
  }

  // Let some backlog resolve in virtual time before draining.
  clock.advance(0.5);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) {
    client.read_socket();
  }
  client.read_socket();

  EXPECT_TRUE(server.finished());
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kCompleted) ++out.notified_completed;
    if (m.type == MsgType::kExpired) ++out.notified_expired;
  }
  out.live = server.result();
  out.jobs = server.backend().instance().jobs();
  return out;
}

void expect_bitwise_equal_results(const sjs::sim::SimResult& live,
                                  const sjs::sim::SimResult& replay) {
  // Exact, not approximate: the replay contract is bit-for-bit.
  EXPECT_EQ(live.completed_value, replay.completed_value);
  EXPECT_EQ(live.generated_value, replay.generated_value);
  EXPECT_EQ(live.completed_count, replay.completed_count);
  EXPECT_EQ(live.expired_count, replay.expired_count);
  ASSERT_EQ(live.outcomes.size(), replay.outcomes.size());
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    EXPECT_EQ(live.outcomes[i], replay.outcomes[i]) << "job " << i;
    // memcmp so NaN (expired jobs) compares equal to itself.
    EXPECT_EQ(std::memcmp(&live.completion_times[i],
                          &replay.completion_times[i], sizeof(double)),
              0)
        << "job " << i;
    EXPECT_EQ(live.executed_work[i], replay.executed_work[i]) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// The tentpole contract: journal replay is bit-exact.

TEST(ServeTest, FakeClockSessionReplaysBitExactly) {
  const std::string dir = fresh_dir("serve_replay");
  const SessionOutput session = run_scripted_session(dir);

  EXPECT_EQ(session.accepted, 54u);
  EXPECT_EQ(session.rejected, 6u);
  EXPECT_GT(session.notified_completed, 0u);
  EXPECT_GT(session.notified_expired, 0u);
  // Every accepted job was resolved and notified exactly once by the drain.
  EXPECT_EQ(session.notified_completed + session.notified_expired,
            session.accepted);
  EXPECT_EQ(session.live.completed_count + session.live.expired_count,
            session.accepted);

  // The journal directory is a loadable bundle recording exactly the
  // accepted jobs with their %.17g admission stamps.
  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), session.jobs.size());
  EXPECT_EQ(replayed.c_lo(), kBandLo);
  EXPECT_EQ(replayed.c_hi(), kBandHi);
  for (std::size_t i = 0; i < session.jobs.size(); ++i) {
    EXPECT_EQ(replayed.jobs()[i].release, session.jobs[i].release);
    EXPECT_EQ(replayed.jobs()[i].workload, session.jobs[i].workload);
    EXPECT_EQ(replayed.jobs()[i].deadline, session.jobs[i].deadline);
    EXPECT_EQ(replayed.jobs()[i].value, session.jobs[i].value);
  }
  const auto meta = sjs::serve::read_journal_meta(dir);
  EXPECT_EQ(meta.at("scheduler"), "V-Dover");
  EXPECT_TRUE(sjs::serve::read_journal_cancels(dir).empty());

  // Replay through a fresh engine + scheduler: identical outcomes.
  auto scheduler = make_scheduler(meta.at("scheduler"), replayed.c_lo(),
                                  replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  expect_bitwise_equal_results(session.live, replay);

  // outcomes.csv written at drain must equal the one a replay would write —
  // same check scripts/serve_smoke.sh applies to the installed binaries.
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  const std::string replay_csv_path = fresh_dir("serve_replay_outcomes");
  std::filesystem::create_directories(replay_csv_path);
  sjs::sim::save_outcomes_csv(replay.outcomes, replay.completion_times,
                              replayed.jobs(),
                              replay_csv_path + "/outcomes.csv");
  EXPECT_FALSE(live_csv.empty());
  EXPECT_EQ(live_csv, slurp(replay_csv_path + "/outcomes.csv"));
}

TEST(ServeTest, ScriptedSessionIsDeterministicAcrossRuns) {
  const std::string dir_a = fresh_dir("serve_det_a");
  const std::string dir_b = fresh_dir("serve_det_b");
  const SessionOutput a = run_scripted_session(dir_a);
  const SessionOutput b = run_scripted_session(dir_b);
  expect_bitwise_equal_results(a.live, b.live);
  // Byte-identical journals: admission stamps included.
  for (const char* file : {"/jobs.csv", "/capacity.csv", "/band.csv",
                           "/meta.csv", "/outcomes.csv"}) {
    EXPECT_EQ(slurp(dir_a + file), slurp(dir_b + file)) << file;
  }
}

// ---------------------------------------------------------------------------
// Protocol-visible behaviours, one at a time.

TEST(ServeTest, InadmissibleAndInvalidSubmitsAreRejected) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  SimServer server(config, clock);
  TestClient client(server.start());

  // d − r < p / c_lo: workload 1 needs a window of at least 2 at c_lo = 0.5.
  client.send(submit_msg(1, 1.0, 1.9, 1.0));
  Message r = client.await_seq(server, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));

  client.send(submit_msg(2, -1.0, 1.0, 1.0));
  r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInvalid));

  client.send(submit_msg(3, 1.0, 2.5, 1.0));
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kAccepted);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(ServeTest, AdmissionCheckCanBeDisabled) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  config.admission_check = false;
  SimServer server(config, clock);
  TestClient client(server.start());
  client.send(submit_msg(1, 1.0, 1.9, 1.0));  // inadmissible, but accepted
  EXPECT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);
}

TEST(ServeTest, OverInFlightLimitSheds) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  config.max_in_flight = 2;
  SimServer server(config, clock);
  TestClient client(server.start());
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    client.send(submit_msg(seq, 0.5, 10.0, 1.0));
    EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  }
  client.send(submit_msg(3, 0.5, 10.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kShed);

  // Shedding is load-, not state-based: once a job resolves, capacity frees.
  clock.advance(20.0);
  client.send(submit_msg(4, 0.5, 10.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kAccepted);
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(ServeTest, CancelSuppressesExpiryNotification) {
  FakeClock clock;
  const std::string dir = fresh_dir("serve_cancel");
  SimServer server(scripted_config(dir), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 1.0, 4.0, 1.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  // A job only becomes cancellable once its release event has fired, which
  // happens on the first pump strictly after the admission stamp.
  clock.advance(0.5);
  server.step(0);

  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 2;
  cancel.ticket = accepted.ticket;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 2).type, MsgType::kCancelled);

  // Cancelling again (terminal job) fails.
  cancel.seq = 3;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kCancelFailed);
  // As does a ticket that never existed.
  cancel.seq = 4;
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kCancelFailed);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 5;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 5).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  client.read_socket();

  // The forced expiry stays internal: no kExpired reaches the client.
  for (const Message& m : client.inbox) {
    EXPECT_NE(m.type, MsgType::kExpired);
    EXPECT_NE(m.type, MsgType::kCompleted);
  }
  EXPECT_EQ(server.stats().cancelled, 1u);
  // The journal records the cancel, marking the session non-replayable.
  const auto cancels = sjs::serve::read_journal_cancels(dir);
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].second, static_cast<sjs::JobId>(accepted.ticket));
}

// cancels.csv rows must be whole numbers; a bad row used to escape as a
// bare std::invalid_argument("stod") with no row number.
std::string cancels_error(const std::string& rows) {
  const std::string dir = fresh_dir("serve_bad_cancels");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/cancels.csv");
    out << "time,ticket\n" << rows;
  }
  try {
    sjs::serve::read_journal_cancels(dir);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JournalTest, CancelRowsMustBeNumeric) {
  EXPECT_EQ(cancels_error("1.5,3\n"), "");
  EXPECT_NE(cancels_error("1.5,3\nabc,4\n")
                .find("cancels.csv row 2 is not numeric"),
            std::string::npos);
  EXPECT_NE(cancels_error("1.5x,3\n").find("cancels.csv row 1 is not numeric"),
            std::string::npos);
  EXPECT_NE(cancels_error("1.5,3.7\n").find("cancels.csv row 1 is not numeric"),
            std::string::npos);
  EXPECT_NE(cancels_error("1.5,\n").find("cancels.csv row 1 is not numeric"),
            std::string::npos);
  EXPECT_NE(cancels_error("1.5\n").find("cancels.csv row 1 must have 2 fields"),
            std::string::npos);
}

TEST(ServeTest, QueryAndStatsReportLiveState) {
  FakeClock clock;
  SimServer server(scripted_config(""), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 1.0, 10.0, 2.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  Message query;
  query.type = MsgType::kQuery;
  query.seq = 2;
  query.ticket = accepted.ticket;
  client.send(query);
  Message qr = client.await_seq(server, 2);
  ASSERT_EQ(qr.type, MsgType::kQueryReply);
  EXPECT_TRUE(qr.code == static_cast<std::uint8_t>(JobState::kRunning) ||
              qr.code == static_cast<std::uint8_t>(JobState::kQueued))
      << static_cast<int>(qr.code);
  EXPECT_GT(qr.a, 0.0);  // remaining work

  clock.advance(5.0);  // unit capacity: workload 1 finishes well before 5
  query.seq = 3;
  client.send(query);
  qr = client.await_seq(server, 3);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kCompleted));

  query.seq = 4;
  query.ticket = 777;
  client.send(query);
  qr = client.await_seq(server, 4);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kUnknown));

  Message stats;
  stats.type = MsgType::kStats;
  stats.seq = 5;
  client.send(stats);
  const Message sr = client.await_seq(server, 5);
  ASSERT_EQ(sr.type, MsgType::kStatsReply);
  EXPECT_EQ(sr.stats.submitted, 1u);
  EXPECT_EQ(sr.stats.accepted, 1u);
  EXPECT_EQ(sr.stats.completed, 1u);
  EXPECT_EQ(sr.stats.in_flight, 0u);
  EXPECT_EQ(sr.stats.completed_value, 2.0);
  EXPECT_GE(sr.stats.virtual_now, 1.0);
}

TEST(ServeTest, MalformedFrameKillsConnectionNotServer) {
  FakeClock clock;
  SimServer server(scripted_config(""), clock);
  const int port = server.start();

  TestClient bad(port);
  bad.send_bytes({0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00});
  const Message err = bad.await(
      server, [](const Message& m) { return m.type == MsgType::kError; });
  EXPECT_EQ(err.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kMalformedFrame));
  // The server hangs up on the offender...
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    server.step(0);
    closed = bad.read_socket();
  }
  EXPECT_TRUE(closed);

  // ...but keeps serving everyone else.
  TestClient good(port);
  good.send(submit_msg(1, 0.5, 5.0, 1.0));
  EXPECT_EQ(good.await_seq(server, 1).type, MsgType::kAccepted);

  // A client sending a server→client type is also cut off.
  TestClient confused(port);
  Message backwards;
  backwards.type = MsgType::kAccepted;
  backwards.seq = 9;
  confused.send(backwards);
  const Message err2 = confused.await(
      server, [](const Message& m) { return m.type == MsgType::kError; });
  EXPECT_EQ(err2.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kNotARequest));
}

TEST(ServeTest, SubmitsDuringDrainAreRefused) {
  FakeClock clock;
  SimServer server(scripted_config(""), clock);
  TestClient client(server.start());

  // DRAIN and a SUBMIT in the same batch: the submit must see draining.
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 1;
  client.send(drain);
  client.send(submit_msg(2, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1).type, MsgType::kDraining);
  const Message r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kDraining));
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.result().completed_count, 0u);
}

// ---------------------------------------------------------------------------
// Real clocks and real concurrency: server thread + loadgen thread over
// loopback, then the same replay contract. TSan runs this too.

TEST(ServeTest, RealClockLoadgenSessionReplays) {
  const std::string dir = fresh_dir("serve_loadgen");
  sjs::serve::SystemClock server_clock;
  ServerConfig config = scripted_config(dir);
  config.accel = 20.0;  // compress the virtual session into fractions of a s
  SimServer server(config, server_clock);
  const int port = server.start();
  std::thread server_thread([&server] { server.run(); });

  sjs::serve::LoadGenConfig load;
  load.port = port;
  load.duration_s = 0.3;
  load.linger_s = 2.0;
  load.arrival_rate = 200.0;
  load.mean_workload = 0.02;
  load.c_lo = kBandLo;
  load.seed = 99;
  load.send_drain = true;
  sjs::serve::SystemClock client_clock;
  const sjs::serve::LoadReport report =
      sjs::serve::run_load(load, client_clock);
  server_thread.join();

  ASSERT_TRUE(server.finished());
  EXPECT_TRUE(report.drain_acked);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_EQ(report.submitted, report.accepted + report.rejected + report.shed);
  EXPECT_EQ(report.lost, 0u);
  // Drain resolves every admitted job, and the client saw each resolution.
  EXPECT_EQ(report.completed + report.expired, report.accepted);
  EXPECT_EQ(server.result().completed_count, report.completed);
  EXPECT_EQ(server.result().expired_count, report.expired);
  EXPECT_EQ(report.completed_value, server.result().completed_value);

  // Same contract as the FakeClock test, now with wall-clock stamps.
  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), report.accepted);
  auto scheduler = make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  expect_bitwise_equal_results(server.result(), replay);
}

// ---------------------------------------------------------------------------
// Journal durability: a failed append must surface, not silently drop rows.

TEST(JournalTest, AppendFailureThrowsInsteadOfSilentLoss) {
  const std::string dir = fresh_dir("journal_enospc");
  sjs::serve::Journal journal(dir, sjs::cap::CapacityProfile(1.0), kBandLo,
                              kBandHi, {"V-Dover", 1.0, true});

  // Cap the process file size so the next flush past the cap fails with
  // EFBIG — the same silent-failbit path a short write or ENOSPC takes.
  // SIGXFSZ must be ignored or the kernel kills the process instead.
  struct sigaction ignore_xfsz {};
  ignore_xfsz.sa_handler = SIG_IGN;
  struct sigaction old_xfsz {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore_xfsz, &old_xfsz), 0);
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  const rlimit tiny{256, old_limit.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tiny), 0);

  sjs::Job job;
  job.id = 0;
  job.release = 0.25;
  job.workload = 1.0;
  job.deadline = 4.0;
  job.value = 2.0;
  bool threw = false;
  std::string what;
  for (int i = 0; i < 64 && !threw; ++i) {
    job.id = i;
    try {
      journal.record_admit(job);
    } catch (const std::runtime_error& e) {
      threw = true;
      what = e.what();
    }
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_xfsz, nullptr), 0);
  EXPECT_TRUE(threw) << "journal swallowed a failed append";
  EXPECT_NE(what.find("journal append failed"), std::string::npos) << what;
}

/// The journal-failure contract, identical on every plane: submit until an
/// append fails (a tiny RLIMIT_FSIZE makes the flush fail with EFBIG); the
/// client sees ERROR(kJournalFailed), never an ACCEPTED whose row was
/// dropped, and the failure alone drains the plane.
template <typename Server>
void expect_journal_failure_fails_session(Server& server, FakeClock& clock,
                                          int step_ms) {
  TestClient client(server.start());

  // One healthy admission first: the failure path must not corrupt it.
  client.send(submit_msg(1, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1, step_ms).type, MsgType::kAccepted);

  struct sigaction ignore_xfsz {};
  ignore_xfsz.sa_handler = SIG_IGN;
  struct sigaction old_xfsz {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore_xfsz, &old_xfsz), 0);
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  const rlimit tiny{128, old_limit.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tiny), 0);

  // Submit until an append fails. The client must see ERROR(kJournalFailed),
  // never an ACCEPTED whose journal row was silently dropped.
  std::uint64_t seq = 1;
  Message failed{};
  for (int i = 0; i < 64; ++i) {
    clock.advance(0.01);
    client.send(submit_msg(++seq, 0.5, 5.0, 1.0));
    const Message r = client.await_seq(server, seq, step_ms);
    if (r.type == MsgType::kError) {
      failed = r;
      break;
    }
    ASSERT_EQ(r.type, MsgType::kAccepted);
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_xfsz, nullptr), 0);

  ASSERT_EQ(failed.type, MsgType::kError);
  EXPECT_EQ(failed.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kJournalFailed));
  EXPECT_FALSE(server.journal_error().empty());
  // The failure initiated a drain on its own — no DRAIN frame was sent.
  EXPECT_TRUE(server.draining());
  while (server.step(step_ms)) client.read_socket();
  EXPECT_TRUE(server.finished());
}

TEST(ServeTest, JournalFailureFailsSessionCleanly) {
  const std::string dir = fresh_dir("serve_journal_fail_single");
  FakeClock clock;
  SimServer server(scripted_config(dir), clock);
  expect_journal_failure_fails_session(server, clock, 0);
}

TEST(ServeTest, ShardedJournalFailureFailsSessionCleanly) {
  const std::string dir = fresh_dir("serve_journal_fail_shards2");
  FakeClock clock;
  ServerConfig config = scripted_config(dir);
  config.shards = 2;
  config.shard_poll_ms = 5;
  SimServer server(config, clock);
  expect_journal_failure_fails_session(server, clock, 1);
}

TEST(ServeTest, ClusterJournalFailureFailsSessionCleanly) {
  const std::string dir = fresh_dir("serve_journal_fail_cluster2");
  FakeClock clock;
  sjs::cluster::ClusterServerConfig config;
  config.fleet = sjs::cluster::Fleet::heterogeneous(2);
  config.journal_dir = dir;
  sjs::cluster::FleetServer server(config, clock);
  expect_journal_failure_fails_session(server, clock, 0);
}

// ---------------------------------------------------------------------------
// Group commit: the admissions of one socket read share one journal flush,
// and none of their replies leaves the server before it.

/// Data rows of `dir`/jobs.csv as they are on disk now.
std::size_t journal_rows(const std::string& dir) {
  std::ifstream in(dir + "/jobs.csv");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines == 0 ? 0 : lines - 1;  // minus the header
}

/// The frames of `msgs` back to back, to be sent in one write.
std::vector<std::uint8_t> frames(const std::vector<Message>& msgs) {
  std::vector<std::uint8_t> out;
  for (const Message& m : msgs) {
    const std::vector<std::uint8_t> f = sjs::serve::encode_frame(m);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

TEST(ServeTest, BatchedSubmitsAreDurableBeforeTheirReplies) {
  const std::string dir = fresh_dir("serve_group_commit");
  FakeClock clock;
  SimServer server(scripted_config(dir), clock);
  TestClient client(server.start());

  constexpr std::uint64_t kSubmits = 20;
  std::vector<Message> batch;
  for (std::uint64_t s = 1; s <= kSubmits; ++s) {
    batch.push_back(submit_msg(s, 0.5, 5.0, 1.0));
  }
  Message stats;
  stats.type = MsgType::kStats;
  stats.seq = kSubmits + 1;
  batch.push_back(stats);
  client.send_bytes(frames(batch));

  // The first ACCEPTED to arrive finds every acknowledged row on disk.
  client.await_seq(server, 1);
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kAccepted) {
      EXPECT_LE(m.seq, journal_rows(dir));
    }
  }
  // Replies keep request order: the front end's own STATS reply follows
  // the held ACCEPTEDs, and counts them.
  const Message sr = client.await_seq(server, kSubmits + 1);
  ASSERT_EQ(sr.type, MsgType::kStatsReply);
  EXPECT_EQ(sr.stats.accepted, kSubmits);
  ASSERT_EQ(client.inbox.size(), kSubmits + 1);
  for (std::uint64_t s = 1; s <= kSubmits; ++s) {
    EXPECT_EQ(client.inbox[s - 1].seq, s);
    EXPECT_EQ(client.inbox[s - 1].type, MsgType::kAccepted);
  }
  EXPECT_EQ(journal_rows(dir), kSubmits);
}

/// Makes the flush of one batch of five submits fail. Every admission of
/// the batch is withdrawn and answered ERROR; the withdrawn jobs, cancelled
/// before their release events popped, finish expired without ever running,
/// and the session's in-flight count still returns to zero.
template <typename Server>
void expect_failed_commit_withdraws_the_batch(Server& server,
                                              const std::string& dir) {
  TestClient client(server.start());
  client.send(submit_msg(1, 0.5, 5.0, 1.0));
  ASSERT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);

  // jobs.csv may not grow any more: the batch's flush fails with EFBIG.
  struct sigaction ignore_xfsz {};
  ignore_xfsz.sa_handler = SIG_IGN;
  struct sigaction old_xfsz {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore_xfsz, &old_xfsz), 0);
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  const rlimit full{static_cast<rlim_t>(
                        std::filesystem::file_size(dir + "/jobs.csv")),
                    old_limit.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &full), 0);

  constexpr std::uint64_t kLast = 6;
  std::vector<Message> batch;
  for (std::uint64_t s = 2; s <= kLast; ++s) {
    batch.push_back(submit_msg(s, 0.5, 5.0, 1.0));
  }
  client.send_bytes(frames(batch));
  client.await_seq(server, kLast);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_xfsz, nullptr), 0);

  EXPECT_FALSE(server.journal_error().empty());
  EXPECT_TRUE(server.draining());
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  // Every admission of the failed batch was withdrawn and answered ERROR —
  // no ACCEPTED, and no notification for a job the client never got.
  std::size_t batch_replies = 0;
  for (const Message& m : client.inbox) {
    if (m.seq < 2) continue;
    ++batch_replies;
    EXPECT_EQ(m.type, MsgType::kError);
    EXPECT_EQ(m.code,
              static_cast<std::uint8_t>(sjs::serve::ErrorCode::kJournalFailed));
  }
  EXPECT_EQ(batch_replies, kLast - 1);
  EXPECT_EQ(server.stats().accepted, 1u);
  // The engine ran only the committed job: the withdrawn ones expired.
  const auto& outcomes = server.result().outcomes;
  ASSERT_EQ(outcomes.size(), kLast);
  EXPECT_EQ(outcomes[0], sjs::sim::JobOutcome::kCompleted);
  for (std::size_t id = 1; id < kLast; ++id) {
    EXPECT_EQ(outcomes[id], sjs::sim::JobOutcome::kExpired)
        << "withdrawn job " << id;
  }
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().expired, 0u);  // withdrawn, not expired
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServeTest, FailedCommitAnswersEveryAdmissionOfTheBatchWithError) {
  const std::string dir = fresh_dir("serve_group_commit_fail");
  FakeClock clock;
  SimServer server(scripted_config(dir), clock);
  expect_failed_commit_withdraws_the_batch(server, dir);
}

TEST(ServeTest, ClusterFailedCommitAnswersEveryAdmissionOfTheBatchWithError) {
  const std::string dir = fresh_dir("serve_group_commit_fail_cluster2");
  FakeClock clock;
  sjs::cluster::ClusterServerConfig config;
  config.fleet = sjs::cluster::Fleet::heterogeneous(2);
  config.journal_dir = dir;
  sjs::cluster::FleetServer server(config, clock);
  expect_failed_commit_withdraws_the_batch(server, dir);
}

TEST(JournalWriter, AppendedRowsReachTheFileAtCommit) {
  const std::string dir = fresh_dir("journal_append_commit");
  sjs::serve::JournalWriter journal(dir, {});
  sjs::Job job;
  job.release = 0.25;
  job.workload = 1.0;
  job.deadline = 4.0;
  job.value = 2.0;
  for (int i = 0; i < 3; ++i) {
    job.id = i;
    journal.append_admit(job);
  }
  EXPECT_EQ(journal.admit_count(), 0u);  // counted once durable
  journal.commit();
  EXPECT_EQ(journal.admit_count(), 3u);
  EXPECT_EQ(journal_rows(dir), 3u);
}

// ---------------------------------------------------------------------------
// Pooled latency merge: quantiles come from the union of samples, never from
// averaging per-connection summaries.

TEST(LoadGen, UnansweredSubmitsCountAsLost) {
  // A peer that takes connections but never answers: every submit is still
  // unacked when the run ends, and the report counts each one as lost, so
  // the accounting closes.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  sjs::serve::LoadGenConfig load;
  load.port = ntohs(addr.sin_port);
  load.duration_s = 0.1;
  load.linger_s = 0.2;
  load.arrival_rate = 200.0;
  load.connections = 2;
  load.send_drain = true;
  sjs::serve::SystemClock clock;
  const sjs::serve::LoadReport report = sjs::serve::run_load(load, clock);
  ::close(listener);

  EXPECT_FALSE(report.drain_acked);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.lost, report.submitted);
  EXPECT_EQ(report.submitted,
            report.accepted + report.rejected + report.shed + report.lost);
}

TEST(LoadGen, MergedLatencyPoolsSamplesAcrossConnections) {
  // Two heavily skewed connections: one fast (1ms-ish), one slow (100ms-ish)
  // with the same sample count. Averaging the per-connection p99s would
  // report ~50ms; the pooled tail must sit in the slow group.
  std::vector<double> fast;
  std::vector<double> slow;
  for (int i = 0; i < 99; ++i) {
    fast.push_back(1e-3 + static_cast<double>(i) * 1e-6);
    slow.push_back(0.1 + static_cast<double>(i) * 1e-4);
  }
  const sjs::Summary fast_sum = sjs::summarize(fast);
  const sjs::Summary slow_sum = sjs::summarize(slow);
  const sjs::Summary merged =
      sjs::serve::merge_latency_samples({fast, slow});

  EXPECT_EQ(merged.count, fast.size() + slow.size());
  EXPECT_EQ(merged.min, fast.front());
  EXPECT_EQ(merged.max, slow.back());
  // Pooled p99 ≈ the slow group's tail, far above the average of the two
  // per-connection p99s.
  EXPECT_GT(merged.p99, 0.1);
  EXPECT_GT(merged.p99, 1.5 * 0.5 * (fast_sum.p99 + slow_sum.p99));
  // p50 of the pool straddles the groups; each group's own median does not.
  EXPECT_GT(merged.median, fast_sum.median);
  EXPECT_LT(merged.median, slow_sum.median);

  // Degenerate shapes stay well-defined.
  EXPECT_EQ(sjs::serve::merge_latency_samples({}).count, 0u);
  EXPECT_EQ(sjs::serve::merge_latency_samples({{}, {2.5}}).count, 1u);
}

}  // namespace
