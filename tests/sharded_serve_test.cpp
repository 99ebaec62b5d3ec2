// Integration tests for the sharded admission plane: serve::Server with
// config.shards = N >= 1, each shard thread running a serve::Session behind
// bounded channels (src/serve/server.hpp).
//
// The contracts under test:
//
//  1. N = 1 equivalence: one threaded shard, driven through the exact
//     scripted FakeClock session serve_test.cpp uses, leaves a journal at
//     <root>/shard0 that is BYTE-IDENTICAL to the one the inline session
//     (config.shards = 0) writes — same jobs.csv, same %.17g admission
//     stamps, same outcomes.csv. The threaded plane is the same session on
//     another thread, not a behavioural fork.
//
//  2. Per-shard replay: with 4 shards every shard journal is an
//     independent instance bundle that replays bit-exactly through a fresh
//     engine + scheduler, and (for an uncontended workload) the union of
//     shard outcomes equals what a single shard would have produced.
//
//  3. Metrics: the rollup server.* counters equal the plane's stats(), and
//     the per-shard ".shard<k>" series sum to the rollup.
//
// Shard workers run on real threads, so awaits step the acceptor with a
// 1 ms poll timeout — the acceptor's poll set includes the reply-channel
// wake fds, so it unblocks the moment a shard commits a reply.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "jobs/bundle.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
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

constexpr double kBandLo = 0.5;
constexpr double kBandHi = 1.0;

ServerConfig base_config(const std::string& journal_dir, std::size_t shards) {
  ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = sjs::cap::CapacityProfile(1.0);
  config.c_lo = kBandLo;
  config.c_hi = kBandHi;
  config.journal_dir = journal_dir;
  config.shards = shards;
  config.shard_poll_ms = 5;  // shard threads re-check promptly in tests
  return config;
}

/// Raw nonblocking loopback client, templated on the server type so the
/// same scripted session can drive the inline and the threaded plane.
/// `step_ms` is the poll timeout each await spin grants the acceptor.
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

  void read_socket() {
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return;
      decoder_.feed(buf, static_cast<std::size_t>(n));
      Message m;
      while (decoder_.next(m) == FrameDecoder::Status::kOk) {
        inbox.push_back(m);
      }
    }
  }

  template <typename Server, typename Pred>
  Message await(Server& server, Pred pred, int step_ms, int spins = 4000) {
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
  Message await_seq(Server& server, std::uint64_t seq, int step_ms) {
    return await(
        server, [seq](const Message& m) { return m.seq == seq; }, step_ms);
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

/// The serve_test.cpp scripted session, verbatim (Rng(4242), 60 submissions,
/// every 10th inadmissible), driving an arbitrary server type. Awaiting each
/// reply before advancing the clock pins every admission stamp regardless of
/// which thread evaluates it, so the N=1 byte-identity comparison is fair.
template <typename Server>
void run_scripted_session(Server& server, FakeClock& clock, int step_ms) {
  server.start();
  TestClient client(server.port());
  sjs::Rng rng(4242);
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(rng.exponential_rate(20.0));
    const double workload = rng.exponential_mean(0.05);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / kBandLo
                              : rng.uniform(1.05, 3.0) * workload / kBandLo;
    const double value = workload * rng.uniform(1.0, 7.0);
    client.send(submit_msg(++seq, workload, window, value));
    const Message r = client.await_seq(server, seq, step_ms);
    EXPECT_EQ(r.type, sabotage ? MsgType::kRejected : MsgType::kAccepted) << i;
  }
  clock.advance(0.5);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq, step_ms).type, MsgType::kDraining);
  while (server.step(step_ms)) {
    client.read_socket();
  }
  client.read_socket();
  EXPECT_TRUE(server.finished());
}

void expect_bitwise_equal_results(const sjs::sim::SimResult& live,
                                  const sjs::sim::SimResult& replay) {
  EXPECT_EQ(live.completed_value, replay.completed_value);
  EXPECT_EQ(live.generated_value, replay.generated_value);
  EXPECT_EQ(live.completed_count, replay.completed_count);
  EXPECT_EQ(live.expired_count, replay.expired_count);
  ASSERT_EQ(live.outcomes.size(), replay.outcomes.size());
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    EXPECT_EQ(live.outcomes[i], replay.outcomes[i]) << "job " << i;
    EXPECT_EQ(std::memcmp(&live.completion_times[i],
                          &replay.completion_times[i], sizeof(double)),
              0)
        << "job " << i;
    EXPECT_EQ(live.executed_work[i], replay.executed_work[i]) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Contract 1: shards=1 is byte-identical to the single-threaded server.

TEST(ShardedServeTest, SingleShardJournalIsByteIdenticalToAdmissionServer) {
  const std::string dir_single = fresh_dir("sharded_eq_single");
  const std::string dir_sharded = fresh_dir("sharded_eq_sharded");

  {
    FakeClock clock;
    SimServer server(base_config(dir_single, 0), clock);
    run_scripted_session(server, clock, 0);
  }
  sjs::sim::SimResult sharded_live;
  {
    FakeClock clock;
    SimServer server(base_config(dir_sharded, 1), clock);
    run_scripted_session(server, clock, 1);
    ASSERT_EQ(server.shard_count(), 1u);
    sharded_live = server.result(0);
    EXPECT_EQ(server.stats().accepted, 54u);
    EXPECT_EQ(server.stats().rejected, 6u);
  }

  // The shard0 bundle must match the single server's journal byte for byte
  // — admission stamps, job order, capacity band, outcomes, all of it.
  for (const char* file : {"/jobs.csv", "/capacity.csv", "/band.csv",
                           "/meta.csv", "/outcomes.csv"}) {
    const std::string single = slurp(dir_single + file);
    ASSERT_FALSE(single.empty()) << file;
    EXPECT_EQ(single, slurp(dir_sharded + "/shard0" + file)) << file;
  }

  // And the shard's bundle replays bit-exactly against its live result.
  const sjs::Instance replayed =
      sjs::load_instance_bundle(dir_sharded + "/shard0");
  auto scheduler = make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  expect_bitwise_equal_results(sharded_live, engine.run_to_completion());
}

// ---------------------------------------------------------------------------
// Contract 2: shards=4 — every shard journal replays bit-exactly, and for an
// uncontended workload the union of outcomes equals a one-shard run.

/// Widely spaced identical-shape submissions: each job completes well before
/// the next arrives, so per-job fate is independent of which shard (and how
/// many) it lands on. 40 jobs, workload 0.25 into a 5.0 window at unit
/// capacity, 1 virtual second apart.
template <typename Server>
std::vector<std::uint64_t> run_spaced_session(Server& server, FakeClock& clock,
                                              int step_ms, int jobs) {
  server.start();
  TestClient client(server.port());
  std::vector<std::uint64_t> tickets;
  std::uint64_t seq = 0;
  for (int i = 0; i < jobs; ++i) {
    clock.advance(1.0);
    client.send(submit_msg(++seq, 0.25, 5.0, 1.0 + 0.01 * i));
    const Message r = client.await_seq(server, seq, step_ms);
    EXPECT_EQ(r.type, MsgType::kAccepted) << i;
    tickets.push_back(r.ticket);
  }
  clock.advance(2.0);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq, step_ms).type, MsgType::kDraining);
  while (server.step(step_ms)) {
    client.read_socket();
  }
  client.read_socket();
  EXPECT_TRUE(server.finished());
  return tickets;
}

struct JobRow {
  double release, workload, deadline, value;
};

bool operator<(const JobRow& a, const JobRow& b) { return a.release < b.release; }

std::vector<JobRow> bundle_rows(const std::string& dir) {
  std::vector<JobRow> rows;
  const sjs::Instance bundle = sjs::load_instance_bundle(dir);
  for (const sjs::Job& j : bundle.jobs()) {
    rows.push_back({j.release, j.workload, j.deadline, j.value});
  }
  return rows;
}

TEST(ShardedServeTest, FourShardJournalsReplayBitExactlyAndUnionMatches) {
  constexpr int kJobs = 40;
  const std::string dir_one = fresh_dir("sharded_union_one");
  const std::string dir_four = fresh_dir("sharded_union_four");

  {
    FakeClock clock;
    SimServer server(base_config(dir_one, 1), clock);
    run_spaced_session(server, clock, 1, kJobs);
  }

  FakeClock clock;
  SimServer server(base_config(dir_four, 4), clock);
  const auto tickets = run_spaced_session(server, clock, 1, kJobs);
  ASSERT_EQ(server.shard_count(), 4u);

  // Tickets are dense globals in submission order.
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(tickets[i], static_cast<std::uint64_t>(i));
  }

  // Every shard got work (splitmix64 spreads even 40 consecutive tickets),
  // every shard journal is an independent bundle that replays bit-exactly,
  // and every admitted job completed (the workload is uncontended).
  std::vector<JobRow> union_rows;
  std::size_t union_jobs = 0;
  std::uint64_t union_completed = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string shard_dir = dir_four + "/shard" + std::to_string(k);
    const sjs::Instance replayed = sjs::load_instance_bundle(shard_dir);
    EXPECT_GT(replayed.jobs().size(), 0u) << "shard " << k;
    union_jobs += replayed.jobs().size();

    auto scheduler =
        make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
    sjs::sim::Engine engine(replayed, *scheduler);
    const sjs::sim::SimResult replay = engine.run_to_completion();
    expect_bitwise_equal_results(server.result(k), replay);
    union_completed += replay.completed_count;

    // outcomes.csv on disk equals what a fresh replay would write: the same
    // byte-diff scripts/serve_smoke.sh applies per shard in CI.
    const std::string replay_dir = fresh_dir("sharded_union_replay");
    std::filesystem::create_directories(replay_dir);
    sjs::sim::save_outcomes_csv(replay.outcomes, replay.completion_times,
                                replayed.jobs(), replay_dir + "/outcomes.csv");
    EXPECT_EQ(slurp(shard_dir + "/outcomes.csv"),
              slurp(replay_dir + "/outcomes.csv"))
        << "shard " << k;

    for (const JobRow& row : bundle_rows(shard_dir)) union_rows.push_back(row);
  }
  EXPECT_EQ(union_jobs, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(union_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kJobs));

  // Union of the four shard bundles == the one-shard bundle, field-exact
  // (releases are unique, so sorting by release aligns the rows).
  std::vector<JobRow> one_rows = bundle_rows(dir_one + "/shard0");
  std::sort(union_rows.begin(), union_rows.end());
  std::sort(one_rows.begin(), one_rows.end());
  ASSERT_EQ(union_rows.size(), one_rows.size());
  for (std::size_t i = 0; i < one_rows.size(); ++i) {
    EXPECT_EQ(union_rows[i].release, one_rows[i].release) << i;
    EXPECT_EQ(union_rows[i].workload, one_rows[i].workload) << i;
    EXPECT_EQ(union_rows[i].deadline, one_rows[i].deadline) << i;
    EXPECT_EQ(union_rows[i].value, one_rows[i].value) << i;
  }
}

// ---------------------------------------------------------------------------
// Ticket routing: cancel and query cross the plane to the owning shard.

TEST(ShardedServeTest, CancelAndQueryRouteToOwningShard) {
  FakeClock clock;
  const std::string dir = fresh_dir("sharded_routing");
  SimServer server(base_config(dir, 4), clock);
  server.start();
  TestClient client(server.port());

  std::vector<std::uint64_t> tickets;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    client.send(submit_msg(seq, 1.0, 50.0, 1.0));
    const Message r = client.await_seq(server, seq, 1);
    ASSERT_EQ(r.type, MsgType::kAccepted);
    tickets.push_back(r.ticket);
    clock.advance(0.01);  // distinct stamps; jobs stay live (long windows)
  }

  // Jobs become cancellable once their release event fires.
  clock.advance(0.1);
  server.step(1);

  // QUERY each ticket: the acceptor must route by splitmix64 and the owning
  // shard must answer with live state.
  for (std::uint64_t i = 0; i < 4; ++i) {
    Message query;
    query.type = MsgType::kQuery;
    query.seq = 10 + i;
    query.ticket = tickets[i];
    client.send(query);
    const Message qr = client.await_seq(server, 10 + i, 1);
    ASSERT_EQ(qr.type, MsgType::kQueryReply) << i;
    EXPECT_TRUE(qr.code == static_cast<std::uint8_t>(JobState::kRunning) ||
                qr.code == static_cast<std::uint8_t>(JobState::kQueued))
        << static_cast<int>(qr.code);
    EXPECT_GT(qr.a, 0.0);  // remaining work
  }

  // Cancel ticket 2; its expiry must stay internal to the shard.
  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 20;
  cancel.ticket = tickets[2];
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 20, 1).type, MsgType::kCancelled);
  cancel.seq = 21;  // terminal now: second cancel fails on the owning shard
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 21, 1).type, MsgType::kCancelFailed);

  // Unknown tickets fail at the acceptor without touching any shard.
  cancel.seq = 22;
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 22, 1).type, MsgType::kCancelFailed);
  Message query;
  query.type = MsgType::kQuery;
  query.seq = 23;
  query.ticket = 999;
  client.send(query);
  const Message qr = client.await_seq(server, 23, 1);
  ASSERT_EQ(qr.type, MsgType::kQueryReply);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kUnknown));

  // Aggregate STATS from the acceptor, then drain.
  Message stats;
  stats.type = MsgType::kStats;
  stats.seq = 30;
  client.send(stats);
  const Message sr = client.await_seq(server, 30, 1);
  ASSERT_EQ(sr.type, MsgType::kStatsReply);
  EXPECT_EQ(sr.stats.submitted, 4u);
  EXPECT_EQ(sr.stats.accepted, 4u);
  EXPECT_EQ(sr.stats.cancelled, 1u);
  EXPECT_EQ(sr.stats.in_flight, 3u);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 31;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 31, 1).type, MsgType::kDraining);
  while (server.step(1)) client.read_socket();
  client.read_socket();

  // The cancelled job's forced expiry never reached the client.
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kExpired) {
      ++expired;
      EXPECT_NE(m.ticket, tickets[2]);
    }
    if (m.type == MsgType::kCompleted) ++completed;
  }
  // The three survivors resolved one way or the other at drain.
  EXPECT_EQ(expired + completed, 3u);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ShardedServeTest, FailedStartDoesNotHangTheDestructor) {
  // The journal root lies under a regular file, so opening shard 0's
  // journal throws before any shard thread exists.
  const std::string file = fresh_dir("sharded_bad_journal");
  std::ofstream(file) << "not a directory";
  FakeClock clock;
  SimServer server(base_config(file + "/journal", 2), clock);
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(ShardedServeTest, SubmitsDuringDrainAreRefused) {
  FakeClock clock;
  SimServer server(base_config("", 2), clock);
  server.start();
  TestClient client(server.port());

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 1;
  client.send(drain);
  client.send(submit_msg(2, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1, 1).type, MsgType::kDraining);
  const Message r = client.await_seq(server, 2, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kDraining));
  while (server.step(1)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.stats().accepted, 0u);
}

// ---------------------------------------------------------------------------
// Metrics: one rollup, and per-shard series that sum to it.

TEST(ShardedServeTest, RollupMetricsMatchStatsAndShardSeriesSumToThem) {
  sjs::obs::MetricsRegistry metrics;
  FakeClock clock;
  ServerConfig config = base_config("", 2);
  config.max_in_flight = 4;
  SimServer server(config, clock, &metrics);
  server.start();
  TestClient client(server.port());

  // Unit-work jobs on unit-rate shards: half with the tightest admissible
  // window (some expire), half with room to spare (they complete); more
  // than a shard's in-flight limit (sheds), one inadmissible submit, and
  // one cancel.
  std::uint64_t seq = 0;
  client.send(submit_msg(++seq, 1.0, 1.0, 1.0));  // inadmissible at c_lo
  EXPECT_EQ(client.await_seq(server, seq, 1).type, MsgType::kRejected);
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 12; ++i) {
    client.send(submit_msg(++seq, 1.0, i % 2 == 0 ? 2.0 : 40.0, 1.0));
    const Message r = client.await_seq(server, seq, 1);
    if (r.type == MsgType::kAccepted) tickets.push_back(r.ticket);
    clock.advance(0.01);
  }
  clock.advance(0.1);
  server.step(1);
  ASSERT_FALSE(tickets.empty());
  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = ++seq;
  cancel.ticket = tickets.back();
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, seq, 1).type, MsgType::kCancelled);
  clock.advance(3.0);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq, 1).type, MsgType::kDraining);
  while (server.step(1)) client.read_socket();

  const sjs::serve::StatsBody stats = server.stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.expired, 0u);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.cancelled, 1u);
  const auto snap = metrics.snapshot();
  const auto counter = [&](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  };
  const std::pair<const char*, std::uint64_t> rollups[] = {
      {"accepted", stats.accepted},   {"rejected", stats.rejected},
      {"shed", stats.shed},           {"completed", stats.completed},
      {"expired", stats.expired},     {"cancelled", stats.cancelled}};
  for (const auto& [name, expected] : rollups) {
    const std::string base = std::string("server.jobs_") + name;
    EXPECT_EQ(counter(base), static_cast<double>(expected)) << base;
    EXPECT_EQ(counter(base + ".shard0") + counter(base + ".shard1"),
              counter(base))
        << base;
  }
  EXPECT_GT(counter("server.jobs_accepted.shard0"), 0.0);
  EXPECT_GT(counter("server.jobs_accepted.shard1"), 0.0);
}

}  // namespace
