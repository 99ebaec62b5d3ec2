// Integration tests for the fleet-backed admission service
// (serve::Server over cluster::FleetBackend, src/cluster/fleet_backend.hpp).
//
// The flagship test drives a FleetServer over a real loopback socket under
// a FakeClock, drains it, then loads the journal directory as a cluster
// bundle and re-runs it through a fresh Dispatcher + MultiEngine — job
// outcomes, completion times, and outcomes.csv must match the live session
// BIT-EXACTLY (the contract `sjs_sim --cluster-bundle=` relies on). Rental
// *cost* is deliberately excluded from the bitwise comparison: the live
// session settles its account at the wall-driven drain instant, which lies
// past the last engine event the replay settles at (see docs/cluster.md).
//
// The remaining tests cover fleet admission rejection, cancel semantics and
// the cancels journal, QUERY/STATS, and cross-run journal determinism.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_journal.hpp"
#include "cluster/fleet_backend.hpp"
#include "cluster/dispatcher.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace {

using sjs::cluster::ClusterServerConfig;
using sjs::cluster::Fleet;
using sjs::cluster::FleetServer;
using sjs::serve::FakeClock;
using sjs::serve::FrameDecoder;
using sjs::serve::JobState;
using sjs::serve::Message;
using sjs::serve::MsgType;
using sjs::serve::RejectReason;

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

/// A raw nonblocking loopback client; same single-threaded await idiom as
/// tests/serve_test.cpp, retargeted at FleetServer.
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
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const Message& m) {
    const auto bytes = sjs::serve::encode_frame(m);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      SJS_CHECK_MSG(n > 0, "test client send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

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
      if (n == 0) return true;
      return false;
    }
  }

  template <typename Pred>
  Message await(FleetServer& server, Pred pred, int spins = 1000) {
    for (int i = 0; i < spins; ++i) {
      for (std::size_t j = scanned_; j < inbox.size(); ++j) {
        if (pred(inbox[j])) {
          scanned_ = j + 1;
          return inbox[j];
        }
      }
      scanned_ = inbox.size();
      server.step(0);
      read_socket();
    }
    ADD_FAILURE() << "no matching reply after " << spins << " spins";
    return Message{};
  }

  Message await_seq(FleetServer& server, std::uint64_t seq) {
    return await(server, [seq](const Message& m) { return m.seq == seq; });
  }

  std::vector<Message> inbox;

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::size_t scanned_ = 0;
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

/// Three speed classes over a deliberately tight base band [30, 35]: the
/// admission floor (60, the large machine's guaranteed rate) sits close to
/// the fleet's actual serving rates (70/35/17.5), so admissible windows are
/// short and queueing genuinely expires jobs — the wide paper band would let
/// every admitted job survive any realistic backlog.
ClusterServerConfig scripted_config(const std::string& journal_dir) {
  ClusterServerConfig config;
  Fleet fleet;
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 2.0, 2.2});
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 1.0, 1.0});
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 0.5, 0.45});
  config.fleet = fleet;
  config.rental = "threshold";
  config.journal_dir = journal_dir;
  return config;
}

struct SessionOutput {
  sjs::cloud::MultiSimResult live;
  std::vector<sjs::Job> jobs;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t notified_completed = 0;
  std::uint64_t notified_expired = 0;
};

/// Drives one fixed 60-submission session against a FakeClock FleetServer:
/// the offered load (~mean workload 40 every 1/8 virtual second ≈ 320/s)
/// swamps the 3-machine fleet's peak throughput of 122.5, so the EDF backlog
/// pushes jobs past their (floor-sized, short) windows and both COMPLETED
/// and EXPIRED notifications occur; every 10th submission is deliberately
/// inadmissible even on the strongest machine's floor.
SessionOutput run_scripted_session(const std::string& journal_dir) {
  FakeClock clock;
  ClusterServerConfig config = scripted_config(journal_dir);
  const double floor = config.fleet.admission_c_lo();
  FleetServer server(std::move(config), clock);
  const int port = server.start();
  TestClient client(port);

  sjs::Rng rng(4242);
  SessionOutput out;
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(rng.exponential_rate(8.0));
    const double workload = rng.exponential_mean(40.0);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / floor    // fails Thm. 3(3)
                              : rng.uniform(1.05, 3.0) * workload / floor;
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
  EXPECT_TRUE(server.journal_error().empty());
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kCompleted) ++out.notified_completed;
    if (m.type == MsgType::kExpired) ++out.notified_expired;
  }
  out.live = server.result();
  out.jobs = server.backend().jobs();
  return out;
}

void expect_bitwise_equal_outcomes(const sjs::cloud::MultiSimResult& live,
                                   const sjs::cloud::MultiSimResult& replay) {
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
// The tentpole contract: a cluster journal replays bit-exactly.

TEST(ClusterServeTest, FakeClockSessionReplaysBitExactly) {
  const std::string dir = fresh_dir("cluster_replay");
  const SessionOutput session = run_scripted_session(dir);

  EXPECT_EQ(session.accepted, 54u);
  EXPECT_EQ(session.rejected, 6u);
  EXPECT_GT(session.notified_completed, 0u);
  EXPECT_GT(session.notified_expired, 0u);
  EXPECT_EQ(session.notified_completed + session.notified_expired,
            session.accepted);
  EXPECT_EQ(session.live.completed_count + session.live.expired_count,
            session.accepted);
  // The elastic fleet actually elasticised under the overload.
  EXPECT_GT(session.live.rented_peak, 1u);
  EXPECT_GT(session.live.rental_cost, 0.0);

  // The journal loads as a cluster bundle recording exactly the accepted
  // jobs with their %.17g admission stamps and the dispatcher's meta.
  const sjs::cluster::ClusterBundle bundle =
      sjs::cluster::load_cluster_bundle(dir);
  ASSERT_EQ(bundle.jobs.size(), session.jobs.size());
  ASSERT_EQ(bundle.fleet.size(), 3u);
  ASSERT_EQ(bundle.paths.size(), 3u);
  EXPECT_TRUE(bundle.cancels.empty());
  EXPECT_EQ(bundle.meta.at("scheduler"), "Cluster-EDF/threshold");
  EXPECT_EQ(bundle.meta.at("sched_key"), "deadline");
  EXPECT_EQ(bundle.meta.at("rental"), "threshold");
  EXPECT_EQ(bundle.meta.at("cluster"), "3");
  for (std::size_t i = 0; i < session.jobs.size(); ++i) {
    EXPECT_EQ(bundle.jobs[i].release, session.jobs[i].release);
    EXPECT_EQ(bundle.jobs[i].workload, session.jobs[i].workload);
    EXPECT_EQ(bundle.jobs[i].deadline, session.jobs[i].deadline);
    EXPECT_EQ(bundle.jobs[i].value, session.jobs[i].value);
  }

  // Replay through a fresh dispatcher + engine, exactly as
  // `sjs_sim --cluster-bundle=` does: identical outcomes.
  const sjs::cluster::ReplaySettings settings =
      sjs::cluster::replay_settings(bundle.meta);
  EXPECT_EQ(settings.dispatcher.key, sjs::cloud::GlobalKey::kDeadline);
  sjs::cluster::Dispatcher dispatcher(
      bundle.fleet, settings.dispatcher,
      sjs::cluster::make_rental_controller(settings.rental));
  const sjs::cloud::MultiSimResult replay =
      sjs::cluster::run_cluster(bundle.jobs, bundle.paths, dispatcher);
  expect_bitwise_equal_outcomes(session.live, replay);
  // Rental decisions replay exactly too — only the settle horizon differs
  // (live settles at the wall-driven drain instant), so cost is compared
  // directionally, not bitwise.
  EXPECT_EQ(session.live.rent_events, replay.rent_events);
  EXPECT_EQ(session.live.rented_peak, replay.rented_peak);
  EXPECT_EQ(session.live.dispatches, replay.dispatches);
  EXPECT_EQ(session.live.migrations, replay.migrations);
  EXPECT_GE(session.live.rental_cost, replay.rental_cost);

  // outcomes.csv written at drain must equal the one the replay writes —
  // the same byte-diff scripts/serve_smoke.sh applies to the binaries.
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  const std::string replay_dir = fresh_dir("cluster_replay_outcomes");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(replay.outcomes, replay.completion_times,
                              bundle.jobs, replay_dir + "/outcomes.csv");
  EXPECT_FALSE(live_csv.empty());
  EXPECT_EQ(live_csv, slurp(replay_dir + "/outcomes.csv"));
}

TEST(ClusterServeTest, ReplaySettingsRejectPartialNumbers) {
  std::map<std::string, std::string> meta = {{"sched_key", "density"},
                                             {"rental", "load"},
                                             {"budget", "1.5"},
                                             {"min_rented", "2"}};
  const sjs::cluster::ReplaySettings ok = sjs::cluster::replay_settings(meta);
  EXPECT_EQ(ok.dispatcher.key, sjs::cloud::GlobalKey::kValueDensity);
  EXPECT_EQ(ok.rental, "load");
  EXPECT_EQ(ok.dispatcher.budget, 1.5);
  EXPECT_EQ(ok.dispatcher.min_rented, 2u);

  // A numeric prefix is not a value: each bad field is named.
  const auto error_for = [](const std::map<std::string, std::string>& m) {
    try {
      sjs::cluster::replay_settings(m);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  for (const char* bad : {"1.5abc", "", "abc", "1.5 2"}) {
    auto m = meta;
    m["budget"] = bad;
    EXPECT_NE(error_for(m).find("budget"), std::string::npos) << bad;
  }
  for (const char* bad : {"2x", "2.5", "0", "-1", ""}) {
    auto m = meta;
    m["min_rented"] = bad;
    EXPECT_NE(error_for(m).find("min_rented"), std::string::npos) << bad;
  }
  // Absent keys keep the defaults.
  const sjs::cluster::ReplaySettings defaults =
      sjs::cluster::replay_settings({});
  EXPECT_EQ(defaults.rental, "static");
  EXPECT_EQ(defaults.dispatcher.budget, 0.0);
  EXPECT_EQ(defaults.dispatcher.min_rented, 1u);
}

TEST(ClusterServeTest, ScriptedSessionIsDeterministicAcrossRuns) {
  const std::string dir_a = fresh_dir("cluster_det_a");
  const std::string dir_b = fresh_dir("cluster_det_b");
  const SessionOutput a = run_scripted_session(dir_a);
  const SessionOutput b = run_scripted_session(dir_b);
  expect_bitwise_equal_outcomes(a.live, b.live);
  EXPECT_EQ(a.live.rental_cost, b.live.rental_cost);
  for (const char* file :
       {"/fleet.csv", "/server0.csv", "/server1.csv", "/server2.csv",
        "/band.csv", "/meta.csv", "/jobs.csv", "/cancels.csv",
        "/outcomes.csv"}) {
    EXPECT_EQ(slurp(dir_a + file), slurp(dir_b + file)) << file;
  }
}

// ---------------------------------------------------------------------------
// Protocol-visible behaviours, one at a time.

TEST(ClusterServeTest, RejectsJobsHopelessEvenOnTheStrongestMachine) {
  FakeClock clock;
  FleetServer server(scripted_config(""), clock);
  TestClient client(server.start());
  // Fleet floor is 60 (the large machine's guaranteed rate): workload 600
  // needs a 10-second window even on the best floor, so a window of 4 is
  // hopeless and one of 12 is admissible.
  client.send(submit_msg(1, 600.0, 4.0, 1.0));
  Message r = client.await_seq(server, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));
  client.send(submit_msg(2, 600.0, 12.0, 1.0));
  r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kAccepted);
  server.request_drain();
  while (server.step(0)) client.read_socket();
}

TEST(ClusterServeTest, CancelSemanticsAndCancelJournal) {
  const std::string dir = fresh_dir("cluster_cancel");
  FakeClock clock;
  FleetServer server(scripted_config(dir), clock);
  TestClient client(server.start());

  // Big enough that the large machine (rate 70) is still chewing on it when
  // the cancel lands at virtual t = 0.5.
  client.send(submit_msg(1, 350.0, 200.0, 5.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  // The job becomes cancellable once its release event has fired.
  clock.advance(0.5);
  server.step(0);

  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 2;
  cancel.ticket = accepted.ticket;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 2).type, MsgType::kCancelled);

  cancel.seq = 3;  // terminal job: cancelling again fails
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kCancelFailed);
  cancel.seq = 4;  // as does a ticket that never existed
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kCancelFailed);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 5;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 5).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();

  EXPECT_EQ(server.result().expired_count, 1u);
  EXPECT_EQ(server.result().completed_count, 0u);
  // The cancellation is journalled, and a cancel-bearing bundle says so.
  const auto bundle = sjs::cluster::load_cluster_bundle(dir);
  ASSERT_EQ(bundle.cancels.size(), 1u);
  EXPECT_EQ(bundle.cancels[0].second, 0u);
  EXPECT_GT(bundle.cancels[0].first, 0.0);
}

TEST(ClusterServeTest, QueryAndStatsReflectTheFleet) {
  FakeClock clock;
  ClusterServerConfig config = scripted_config("");
  FleetServer server(std::move(config), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 70.0, 100.0, 2.0));
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

  // The large machine serves at 70: workload 70 finishes well before t=5.
  clock.advance(5.0);
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

  server.request_drain();
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
}

TEST(ClusterServeTest, PublishesClusterMetricsAtDrain) {
  sjs::obs::MetricsRegistry metrics;
  FakeClock clock;
  FleetServer server(scripted_config(""), clock, &metrics);
  TestClient client(server.start());
  client.send(submit_msg(1, 10.0, 20.0, 1.0));
  ASSERT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);
  clock.advance(1.0);
  server.request_drain();
  while (server.step(0)) client.read_socket();
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("cluster.dispatches"), 1.0);
  EXPECT_GT(snap.counters.at("cluster.cost_accrued"), 0.0);
  EXPECT_EQ(snap.gauges.at("cluster.rented_machines"), 1.0);
  EXPECT_GT(snap.gauges.at("cluster.util.server0"), 0.0);
}

}  // namespace
