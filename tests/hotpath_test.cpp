// Long-run bounded-memory regression for the engine hot paths.
//
// The adaptive-EWMA V-Dover configuration is the engine's worst timer
// customer: every capacity breakpoint cancels and re-arms one 0-claxity
// timer per queued job. Over a profile with hundreds of breakpoints the
// pre-slab engine grew its timer table and event heap linearly with the
// number of set_timer calls (the table was append-only, and cancelled
// events were left dead in the heap until their expiry popped). These tests
// pin the bounded-memory contract of engine.hpp: slab slots stay O(max
// simultaneously live timers) and the dead fraction of the heap stays below
// the compaction threshold, no matter how many timers a run arms.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "cluster/fleet_backend.hpp"
#include "jobs/instance.hpp"
#include "jobs/workload_gen.hpp"
#include "sched/factory.hpp"
#include "sched/vdover.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

/// Many-breakpoint profile oscillating in [1, 4] with mean sojourn
/// `mean_sojourn` — dense capacity changes, little service capacity, so an
/// aggressive arrival stream keeps a standing Qother queue (each queued job
/// holds one armed 0cl timer that every breakpoint cancels and re-arms).
cap::CapacityProfile make_choppy_profile(std::size_t segments,
                                         double mean_sojourn, Rng& rng) {
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(1.0, 4.0)};
  for (std::size_t i = 1; i < segments; ++i) {
    times.push_back(times.back() + rng.exponential_mean(mean_sojourn));
    rates.push_back(rng.uniform(1.0, 4.0));
  }
  return {std::move(times), std::move(rates)};
}

/// V-Dover with the engine's occupancy sampled at every capacity
/// breakpoint — the instants right after the scheduler's own timer churn.
class ProbedVDover : public sched::VDoverScheduler {
 public:
  explicit ProbedVDover(const sched::VDoverOptions& options)
      : sched::VDoverScheduler(options) {}

  void on_capacity_change(sim::Engine& engine) override {
    sched::VDoverScheduler::on_capacity_change(engine);
    max_live_timers_ =
        std::max(max_live_timers_, engine.live_timer_count());
    max_slab_size_ = std::max(max_slab_size_, engine.timer_slab_size());
    const std::size_t queued = engine.queued_event_count();
    const std::size_t dead = engine.dead_event_count();
    max_dead_events_ = std::max(max_dead_events_, dead);
    if (queued >= sim::Engine::kCompactionMinEvents) {
      max_dead_fraction_ = std::max(
          max_dead_fraction_,
          static_cast<double>(dead) / static_cast<double>(queued));
    }
    ++samples_;
  }

  std::size_t max_live_timers_ = 0;
  std::size_t max_slab_size_ = 0;
  std::size_t max_dead_events_ = 0;
  double max_dead_fraction_ = 0.0;
  std::size_t samples_ = 0;
};

TEST(HotPathBoundedMemory, TimerSlabAndHeapStayBoundedUnderEwmaChurn) {
  // A 3x-overloaded arrival stream against 512 capacity breakpoints:
  // thousands of timer arms, only a few dozen ever live at once.
  Rng rng(2024);
  auto profile = make_choppy_profile(512, 0.2, rng);  // span ~100
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(800, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;
  ProbedVDover scheduler(options);
  sim::Engine engine(instance, scheduler);
  auto result = engine.run_to_completion();

  // The probe actually sampled the churn (every breakpoint inside the run).
  ASSERT_GT(scheduler.samples_, 400u);
  ASSERT_GT(result.timers_armed, 1000u);

  // Slab slots are bounded by peak simultaneous liveness, not by the arm
  // count. The pre-slab engine kept one record per set_timer call, so this
  // bound is the regression: slots would equal timers_armed there. (The
  // probe samples only at breakpoints, so it may miss the exact peak
  // instant — it lower-bounds the engine's own accounting.)
  EXPECT_GE(result.timer_slab_peak,
            static_cast<std::uint64_t>(scheduler.max_live_timers_));
  EXPECT_LE(result.timer_slab_peak, result.timer_slab_slots);
  EXPECT_LE(result.timer_slab_slots, instance.size() + 4);
  EXPECT_LT(result.timer_slab_slots, result.timers_armed / 10);
  EXPECT_LE(scheduler.max_slab_size_, instance.size() + 4);

  // Dead (cancelled / stale) events never dominate the heap: compaction
  // keeps the dead fraction at most ~half once the heap is big enough for
  // compaction to be worthwhile, plus slack for the events added between
  // threshold crossings.
  EXPECT_LE(scheduler.max_dead_fraction_, 0.75);
  EXPECT_LE(static_cast<std::uint64_t>(scheduler.max_dead_events_),
            result.event_heap_peak);

  // The mechanism engaged (this workload cancels far more than it fires)
  // and the run still terminated with an empty slab.
  EXPECT_GE(result.heap_compactions, 1u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
  EXPECT_EQ(engine.dead_event_count(), 0u);
}

TEST(HotPathBoundedMemory, ReadyQueueStorageStaysBoundedUnderChurn) {
  // The same churn-heavy workload through V-Dover's three ReadyQueues: the
  // entry storage each run reserves must be bounded by the occupancy peak
  // (plus geometric-growth slack), never by the number of queue operations,
  // and identical replays must report identical occupancy. Runs on a fresh
  // thread so the queues' thread-local buffer recycler starts empty —
  // otherwise buffers donated by other tests in this process would inflate
  // the slot accounting this test bounds.
  std::thread worker([] {
  Rng rng(2026);
  auto profile = make_choppy_profile(128, 0.2, rng);
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(400, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;

  std::uint64_t first_peak = 0;
  std::uint64_t first_slots = 0;
  std::optional<sim::Engine> engine;
  for (int run = 0; run < 6; ++run) {
    sched::VDoverScheduler scheduler(options);
    if (engine) {
      engine->reset(scheduler);
    } else {
      engine.emplace(instance, scheduler);
    }
    auto result = engine->run_to_completion();

    // The workload actually exercises the queues...
    ASSERT_GT(result.queue_peak, 0u);
    // ...and storage is occupancy-bound: reserve() sizes each of the three
    // queues to at most the instance size, so the summed peak and slot
    // counts can never exceed 3n no matter how many operations ran.
    EXPECT_LE(result.queue_peak,
              3 * static_cast<std::uint64_t>(instance.size()));
    EXPECT_LE(result.queue_slots,
              3 * static_cast<std::uint64_t>(instance.size()));
    EXPECT_GE(result.queue_slots, result.queue_peak);

    if (run == 0) {
      first_peak = result.queue_peak;
      first_slots = result.queue_slots;
    } else {
      // Identical replay => identical occupancy accounting (this is what
      // the sched.queue.* gauges aggregate).
      EXPECT_EQ(result.queue_peak, first_peak);
      EXPECT_EQ(result.queue_slots, first_slots);
    }
  }
  });
  worker.join();
}

TEST(HotPathBoundedMemory, RepeatedResetDoesNotGrowSlab) {
  // Replay the same churn-heavy instance many times on ONE engine (the
  // Monte-Carlo reuse path): per-run occupancy must not creep run over run.
  Rng rng(2025);
  auto profile = make_choppy_profile(128, 0.2, rng);
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(200, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;

  std::uint64_t first_slots = 0;
  std::uint64_t first_heap_peak = 0;
  std::optional<sim::Engine> engine;
  for (int run = 0; run < 8; ++run) {
    sched::VDoverScheduler scheduler(options);
    if (engine) {
      engine->reset(scheduler);
    } else {
      engine.emplace(instance, scheduler);
    }
    auto result = engine->run_to_completion();
    if (run == 0) {
      first_slots = result.timer_slab_slots;
      first_heap_peak = result.event_heap_peak;
    } else {
      // reset() rewinds; identical replay means identical occupancy.
      EXPECT_EQ(result.timer_slab_slots, first_slots);
      EXPECT_EQ(result.event_heap_peak, first_heap_peak);
    }
    EXPECT_EQ(engine->live_timer_count(), 0u);
  }
}

TEST(HotPathAllocations, SteadyStateReplayAllocationRatchet) {
  // Runtime twin of sjs_lint's alloc-in-hot-path rule: that rule's report is
  // the static work-list of allocation sites reachable from the hot-path
  // roots; this test measures how many of them actually FIRE during a warmed
  // steady-state replay, via global operator-new interposition (AllocProbe,
  // linked into this binary only).
  //
  // Protocol: run the instance once cold (tables, slabs, and queues size
  // themselves), DESTROY the cold scheduler so its ReadyQueue buffers return
  // to the thread-local recycler, rebind a fresh scheduler with reset(), then
  // count every allocation of the second, fully warmed replay — including
  // the fresh scheduler's on_start, whose buffers must come back out of the
  // recycler and the engine's slab lanes. The ratchet is ZERO: the warmed
  // hot path owns no allocation site at all (the static twin,
  // `sjs_lint --report=alloc --max=0`, holds the same line at the source
  // level). Runs on a fresh thread so the recycler starts empty and the
  // count does not depend on which tests ran earlier in this process.
  std::uint64_t steady_count = 0;
  std::uint64_t steady_bytes = 0;
  std::thread worker([&] {
    Rng rng(2027);
    auto profile = make_choppy_profile(128, 0.2, rng);
    const double horizon = profile.breakpoints().back();
    auto jobs = gen::generate_small_random_jobs(400, horizon, 7.0, 1.0, 3.0,
                                                rng);
    Instance instance(std::move(jobs), profile);

    sched::VDoverOptions options;
    options.adaptive_estimate = true;

    std::optional<sim::Engine> engine;
    std::uint64_t cold_timers_armed = 0;
    {
      sched::VDoverScheduler cold_scheduler(options);
      engine.emplace(instance, cold_scheduler);
      const auto& cold = engine->run_to_completion();
      ASSERT_GT(cold.timers_armed, 100u);  // the warm-up exercised the paths
      cold_timers_armed = cold.timers_armed;
    }  // cold scheduler's queue buffers -> thread-local recycler

    sched::VDoverScheduler warm_scheduler(options);
    engine->reset(warm_scheduler);
    util::AllocProbe::reset();
    const auto& warm = engine->run_to_completion();
    steady_count = util::AllocProbe::count();
    steady_bytes = util::AllocProbe::bytes();
    ASSERT_EQ(warm.timers_armed, cold_timers_armed);  // identical replay
  });
  worker.join();

  // The zero-allocation steady state (docs/performance.md): a warmed replay
  // allocates NOTHING. Any regression here names its site in
  // `sjs_lint --report=alloc`.
  constexpr std::uint64_t kSteadyStateAllocRatchet = 0;
  RecordProperty("steady_state_allocs", static_cast<int>(steady_count));
  RecordProperty("steady_state_bytes", static_cast<int>(steady_bytes));
  std::fprintf(stderr, "steady-state replay: %llu allocations, %llu bytes\n",
               static_cast<unsigned long long>(steady_count),
               static_cast<unsigned long long>(steady_bytes));
  EXPECT_LE(steady_count, kSteadyStateAllocRatchet);
}

/// Minimal loopback client for the serve steady-state probe below. Unlike
/// serve_test's TestClient it is itself allocation-free once warmed: frames
/// are encoded into a stack buffer, replies are counted rather than stored,
/// and the only growable state is the FrameDecoder's byte buffer (which
/// retains its high-water capacity).
class SteadyClient {
 public:
  explicit SteadyClient(int port) {
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
  ~SteadyClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const serve::Message& m) {
    std::uint8_t frame[serve::kMaxFrame];
    const std::size_t n = serve::encode_frame_into(frame, m);
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t k = ::send(fd_, frame + sent, n - sent, MSG_NOSIGNAL);
      SJS_CHECK_MSG(k > 0, "steady client send failed");
      sent += static_cast<std::size_t>(k);
    }
  }

  void read_socket() {
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return;
      decoder_.feed(buf, static_cast<std::size_t>(n));
      serve::Message m;
      while (decoder_.next(m) == serve::FrameDecoder::Status::kOk) note(m);
    }
  }

  /// Pumps the server until the direct reply to `seq` arrives. Returns its
  /// type (kError after too many fruitless spins).
  template <class Server>
  serve::MsgType await_seq(Server& server, std::uint64_t seq) {
    for (int i = 0; i < 1000; ++i) {
      if (last_direct_seq_ == seq) return last_direct_type_;
      server.step(0);
      read_socket();
    }
    return serve::MsgType::kError;
  }

  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;

 private:
  void note(const serve::Message& m) {
    switch (m.type) {
      case serve::MsgType::kCompleted:
        ++completed;
        return;  // notification: echoes the submit's seq, not a direct reply
      case serve::MsgType::kExpired:
        ++expired;
        return;
      case serve::MsgType::kAccepted:
        ++accepted;
        break;
      case serve::MsgType::kRejected:
        ++rejected;
        break;
      default:
        break;
    }
    last_direct_seq_ = m.seq;
    last_direct_type_ = m.type;
  }

  int fd_ = -1;
  serve::FrameDecoder decoder_;
  std::uint64_t last_direct_seq_ = 0;
  serve::MsgType last_direct_type_ = serve::MsgType::kError;
};

/// What one warmed steady-state serve probe measured.
struct SteadyServeProbe {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t accepts = 0;
  std::uint64_t notifications = 0;
};

/// Drives a warmed FakeClock session of `Server` — submits, accept/reject
/// decisions, completion and expiry notifications, reply encoding, the poll
/// loop — and counts the heap allocations of the measured phase. Workloads
/// scale with the plane's service rate `rate` and windows with its
/// admission floor `lo`, so every plane sees the same relative load. The
/// session is deterministic (FakeClock + seeded Rng), so the count is exact.
template <class Server>
void probe_steady_serve(typename Server::Config config, double lo,
                        double rate, SteadyServeProbe& out) {
  serve::FakeClock clock;
  Server server(std::move(config), clock);
  const int port = server.start();
  SteadyClient client(port);

  Rng rng(2028);
  std::uint64_t seq = 0;
  const auto pump_one = [&](double arrival_rate) {
    clock.advance(rng.exponential_rate(arrival_rate));
    const double workload = rate * rng.exponential_mean(0.05);
    const bool sabotage = (seq % 10) == 9;
    const double window = sabotage ? 0.5 * workload / lo
                                   : rng.uniform(1.05, 3.0) * workload / lo;
    serve::Message m;
    m.type = serve::MsgType::kSubmit;
    m.seq = ++seq;
    m.a = workload;
    m.b = window;
    m.c = workload;
    client.send(m);
    client.await_seq(server, seq);
  };
  const auto settle = [&] {
    clock.advance(5.0);
    for (int i = 0; i < 50; ++i) {
      server.step(0);
      client.read_socket();
    }
  };

  // Warm-up: an overloaded burst (20 submits per virtual second) sizes
  // every buffer past what the measured phase needs and exercises accept,
  // reject, completion, and expiry at least once.
  for (int i = 0; i < 120; ++i) pump_one(20.0);
  settle();
  ASSERT_GT(client.accepted, 0u);
  ASSERT_GT(client.rejected, 0u);
  ASSERT_GT(client.completed, 0u);

  const std::uint64_t warm_accepts = client.accepted;
  const std::uint64_t warm_notes = client.completed + client.expired;
  util::AllocProbe::reset();
  for (int i = 0; i < 120; ++i) pump_one(10.0);
  settle();
  out.allocs = util::AllocProbe::count();
  out.bytes = util::AllocProbe::bytes();
  out.accepts = client.accepted - warm_accepts;
  out.notifications = client.completed + client.expired - warm_notes;
  // Teardown (drain, finalize) happens after the probe window on purpose:
  // the zero-allocation contract covers the steady state, not shutdown.
}

enum class ServeBackend { kSim, kFleet };

void expect_steady_serve_allocations(ServeBackend backend) {
  // The live-mode twin of the replay ratchet above, on each backend behind
  // the one serving session. Session::begin() pre-sizes the slab, routes,
  // and notification buffers from max_in_flight; the warm-up grows
  // everything else (socket buffers, decoders) to its steady-state
  // high-water. No journal, no metrics: the probe measures the serve core
  // itself. Runs on a fresh thread so the ready queues' thread-local
  // recycler starts empty.
  SteadyServeProbe probe;
  std::thread worker([&] {
    if (backend == ServeBackend::kSim) {
      serve::ServerConfig config;
      config.scheduler_name = "V-Dover";
      config.capacity = cap::CapacityProfile(1.0);
      config.c_lo = 0.5;
      config.c_hi = 1.0;
      probe_steady_serve<serve::SimServer>(config, 0.5, 1.0, probe);
    } else {
      cluster::ClusterServerConfig config;
      config.fleet = cluster::Fleet::heterogeneous(2);
      double rate = 0.0;
      for (const auto& path : config.fleet.constant_paths()) {
        rate += path.max_rate();
      }
      probe_steady_serve<cluster::FleetServer>(
          config, config.fleet.admission_c_lo(), rate, probe);
    }
  });
  worker.join();

  // The measured phase did real admission work...
  EXPECT_GT(probe.accepts, 50u);
  EXPECT_GT(probe.notifications, 50u);
  testing::Test::RecordProperty("steady_serve_allocs",
                                static_cast<int>(probe.allocs));
  std::fprintf(stderr, "steady-state serve: %llu allocations, %llu bytes\n",
               static_cast<unsigned long long>(probe.allocs),
               static_cast<unsigned long long>(probe.bytes));
  // ...and neither backend allocated anything at all: the fleet's ready
  // queue, event heap and per-job tables are pre-sized by reserve_live.
  EXPECT_EQ(probe.allocs, 0u);
}

TEST(HotPathAllocations, SteadyStateServeSessionAllocationFree) {
  expect_steady_serve_allocations(ServeBackend::kSim);
}

TEST(HotPathAllocations, SteadyStateFleetServeSessionAllocations) {
  expect_steady_serve_allocations(ServeBackend::kFleet);
}

}  // namespace
}  // namespace sjs
