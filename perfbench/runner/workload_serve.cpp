// serve_64: a closed loop of 64 always-open sessions against an in-process
// SessionServer (shipped defaults, max_sessions 64 plus headroom). Four
// client threads, one client connection and one tenant each, keep 16
// sessions open apiece: a session sends a 1 MiB object as FNV-checked
// 64 KiB chunks, closes, waits for the drained kSessionClosed ack and is
// reopened. Sessions on a connection start in a seeded order one round
// apart, so in steady state every round closes and reopens one session per
// connection.
//
// The run is a series of epochs of fixed work, each on a fresh server and
// fresh connections. A server slows down as it serves sessions (its metrics
// registry keeps every session it ever served), so a time-boxed window
// would measure a different server depending on how fast it got there; an
// epoch of fixed work measures the same one every time. Per client, the
// first 16 sessions ramp up, the next kMeasuredPerClient are measured, and
// sessions keep being opened until the last measured one is acked, so
// every measured session runs at full concurrency.
//
// Set-up (server start + client connects) is sampled once per epoch plus
// kSetupProbes times up front. Each client thread reads its own CPU with
// RUSAGE_THREAD, so the client's pattern fill and FNV are not billed to the
// server.
#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "serve/session_client.hpp"
#include "serve/session_server.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using automdt::serve::SessionClient;
using automdt::serve::SessionServer;

constexpr int kClients = 4;
constexpr int kSessionsPerClient = 16;
/// 1000 measured sessions per epoch: each epoch's p99 keeps 10 beyond it.
constexpr int kMeasuredPerClient = 250;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr int kChunksPerSession = 16;
constexpr std::uint64_t kObjectBytes = kChunkBytes * kChunksPerSession;
constexpr int kSetupProbes = 7;
/// The resident set keeps growing over a run's first epochs (thread arenas
/// of the fresh servers' threads), so its peak is taken over a fixed
/// number of epochs, which every untraced phase runs.
constexpr int kRssEpochs = 3;

automdt::serve::SessionServerConfig server_config() {
  automdt::serve::SessionServerConfig config;
  config.max_sessions = kClients * kSessionsPerClient + 4;
  return config;
}

struct Endpoint {
  std::unique_ptr<SessionServer> server;
  std::vector<std::unique_ptr<SessionClient>> clients;
};

/// Server start + one client connection per client thread; the benchmark's
/// set-up time for this workload.
Endpoint set_up(double& setup_s) {
  const auto t0 = Clock::now();
  Endpoint e;
  e.server = std::make_unique<SessionServer>(server_config());
  if (!e.server->start()) throw std::runtime_error("serve: server start failed");
  for (int d = 0; d < kClients; ++d) {
    auto client = SessionClient::connect("127.0.0.1", e.server->port());
    if (!client) throw std::runtime_error("serve: client connect failed");
    e.clients.push_back(std::move(client));
  }
  setup_s = seconds_between(t0, Clock::now());
  return e;
}

struct ClientResult {
  std::vector<double> session_ms;  // open sent -> close ack, measured sessions
  std::vector<Clock::time_point> acked;  // every ack of the epoch
  Clock::time_point first_measured_open;
  Clock::time_point last_measured_ack;
  std::vector<double> open_ms;
  std::vector<double> close_ms;
  std::vector<double> send_us;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  double cpu_s = 0.0;  // this thread's CPU over the epoch
  std::vector<std::string> errors;
};

struct Slot {
  std::uint32_t id = 0;
  int index = 0;  // open order on this connection
  int sent = 0;
  Clock::time_point opened;
  Spans::Span span;
};

/// The round in which each slot first opens: a permutation of 0..15 drawn
/// from the seed.
std::vector<int> start_rounds(std::uint64_t seed) {
  std::vector<int> rounds(kSessionsPerClient);
  std::iota(rounds.begin(), rounds.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(rounds.begin(), rounds.end(), rng);
  return rounds;
}

void drive(SessionClient& client, const std::string& tenant,
           const std::vector<int>& start_round, bool traced, Spans& spans,
           ClientResult& out) {
  const int track = spans.track(tenant);
  const double cpu0 = thread_cpu_s();
  std::vector<Slot> slots(kSessionsPerClient);
  int opened = 0;
  int measured_left = kMeasuredPerClient;
  bool ok = true;
  for (int round = 0; ok; ++round) {
    bool any_open = false;
    for (int i = 0; i < kSessionsPerClient && ok; ++i) {
      Slot& s = slots[static_cast<std::size_t>(i)];
      if (s.id == 0) {
        // Staggered start; no new sessions once every measured one is acked.
        if (measured_left == 0 ||
            round < start_round[static_cast<std::size_t>(i)])
          continue;
        s.index = opened++;
        s.opened = Clock::now();
        s.span = spans.open(track, "serve.session");
        const Spans::Span open = spans.open(track, "serve.open", s.span.id);
        const auto r = client.open(tenant, kObjectBytes,
                                   static_cast<std::uint32_t>(kChunkBytes));
        const std::uint64_t open_ns = spans.close(open);
        ++out.sessions;
        if (!r.ok()) {
          ++out.failed;
          out.errors.push_back("session open rejected: " + r.message);
          ok = false;
          break;
        }
        if (traced) out.open_ms.push_back(static_cast<double>(open_ns) * 1e-6);
        s.id = r.session_id;
        s.sent = 0;
      }
      any_open = true;
      const std::uint64_t send0 = traced ? automdt::telemetry::now_ns() : 0;
      if (!client.send_pattern_chunk(
              s.id, static_cast<std::uint64_t>(s.sent) * kChunkBytes,
              kChunkBytes)) {
        ++out.failed;
        out.errors.push_back("chunk send failed");
        ok = false;
        break;
      }
      if (traced)
        out.send_us.push_back(
            static_cast<double>(automdt::telemetry::now_ns() - send0) * 1e-3);
      if (++s.sent < kChunksPerSession) continue;

      const Spans::Span close = spans.open(track, "serve.close", s.span.id);
      const auto stats = client.close_session(s.id);
      const std::uint64_t close_ns = spans.close(close);
      spans.close(s.span);
      const auto acked = Clock::now();
      if (!stats || stats->bytes_ok != kObjectBytes ||
          stats->verify_failures != 0) {
        ++out.failed;
        out.errors.push_back("session closed short or with verify failures");
        ok = false;
        break;
      }
      out.acked.push_back(acked);
      if (s.index >= kSessionsPerClient &&
          s.index < kSessionsPerClient + kMeasuredPerClient) {
        if (s.index == kSessionsPerClient) out.first_measured_open = s.opened;
        out.last_measured_ack = acked;
        --measured_left;
        out.session_ms.push_back(
            std::chrono::duration<double, std::milli>(acked - s.opened)
                .count());
      }
      if (traced) out.close_ms.push_back(static_cast<double>(close_ns) * 1e-6);
      s.id = 0;
    }
    if (measured_left == 0 && !any_open) break;
  }
  out.cpu_s = thread_cpu_s() - cpu0;
}

/// One epoch: set up, drive the fixed work to its end, tear down.
void run_epoch(const Options& options, int epoch, bool traced, Spans& spans,
               double& rss_mib, Report& report) {
  double setup_s = 0.0;
  Endpoint e = set_up(setup_s);
  const std::string phase = traced ? "traced." : "";
  report.sample(phase + "setup_s", setup_s);

  auto& metrics = e.server->metrics();
  const auto before = metrics.snapshot();
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  for (int d = 0; d < kClients; ++d) {
    threads.emplace_back([&, d] {
      ClientResult& out = results[static_cast<std::size_t>(d)];
      try {
        drive(*e.clients[static_cast<std::size_t>(d)],
              "bench" + std::to_string(d),
              start_rounds(options.seed * 1000003 +
                           static_cast<std::uint64_t>(epoch * kClients + d)),
              traced, spans, out);
      } catch (const std::exception& ex) {
        ++out.failed;
        out.errors.push_back(std::string("client thread: ") + ex.what());
      }
      done.fetch_add(1);
    });
  }
  // Peak resident set, sampled while the clients run.
  while (done.load() < kClients) {
    rss_mib = std::max(rss_mib, resident_mib());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : threads) t.join();
  const double epoch_s = seconds_between(start, Clock::now());
  const double process_cpu = process_cpu_s() - cpu0;
  const auto snap_t0 = automdt::telemetry::now_ns();
  const auto after = metrics.snapshot();
  const double snapshot_us =
      static_cast<double>(automdt::telemetry::now_ns() - snap_t0) * 1e-3;
  e.clients.clear();
  e.server->stop();
  if (!traced) {
    // More set-up samples, taken while the CPUs are still in the state the
    // epoch left them in.
    for (int i = 0; i < kSetupProbes; ++i) {
      double probe_s = 0.0;
      Endpoint probe = set_up(probe_s);
      report.sample("setup_s", probe_s);
    }
  }

  double client_cpu = 0.0;
  std::uint64_t sessions = 0;
  for (ClientResult& r : results) {
    client_cpu += r.cpu_s;
    sessions += r.sessions;
    report.attempted += r.sessions;
    report.failed += r.failed;
    for (const auto& err : r.errors) report.gate(false, err);
    for (const double v : r.session_ms) {
      report.sample(phase + "session_ms", v);
      report.sample(phase + "session_epoch", epoch);
    }
    if (traced) {
      for (const double v : r.open_ms) report.sample("serve.open_ms", v);
      for (const double v : r.close_ms) report.sample("serve.close_ms", v);
      for (const double v : r.send_us) report.sample("serve.send_us", v);
    }
  }
  report.gate(after.value_or("serve.verify_failures") == 0,
              "server counted verify failures");
  report.gate(after.value_or("serve.sessions_rejected") == 0,
              "server rejected sessions");
  if (!report.errors.empty()) return;

  // Goodput over the part of the epoch in which every client was in steady
  // state: acks in that interval, whichever session they closed.
  Clock::time_point from = results[0].first_measured_open;
  Clock::time_point to = results[0].last_measured_ack;
  for (const ClientResult& r : results) {
    from = std::max(from, r.first_measured_open);
    to = std::min(to, r.last_measured_ack);
  }
  std::uint64_t acks = 0;
  for (const ClientResult& r : results)
    for (const auto& t : r.acked) acks += (t > from && t <= to) ? 1 : 0;
  report.gate(acks > 0, "no steady-state interval in an epoch");
  if (acks == 0) return;
  report.sample(phase + "goodput_mib_s",
                static_cast<double>(acks * kObjectBytes) / kMiB /
                    seconds_between(from, to));
  report.sample(phase + "cpu_ms_per_mib",
                (process_cpu - client_cpu) * 1e3 /
                    (static_cast<double>(sessions * kObjectBytes) / kMiB));
  if (!traced && epoch == kRssEpochs - 1) report.sample("rss_mib", rss_mib);
  report.sample(phase + "snapshot_us", snapshot_us);
  if (traced) {
    report.values["traced.serve.window_s"] += epoch_s;
    // Epoch deltas of the server's stage clocks and final failure counters,
    // summed over the traced epochs.
    for (const char* name :
         {"serve.loop.busy_ns", "serve.pool.busy_ns",
          "serve.pool.blocked_up_ns"})
      report.values[std::string("serve_window.") + name] +=
          after.value_or(name) - before.value_or(name);
    for (const char* name :
         {"serve.sessions_rejected", "serve.verify_failures",
          "serve.late_chunks", "serve.unknown_session_frames"})
      report.values[name] += after.value_or(name);
    for (const char* name : {"serve.event_loops", "serve.worker_threads"})
      report.values[name] = after.value_or(name);
    report.values["serve.client_cpu_s"] += client_cpu;
  }
}

/// Epochs until `seconds` have passed; untraced, at least kRssEpochs.
void run_phase(const Options& options, double seconds, bool traced,
               Report& report) {
  Spans spans(traced ? options.exporter : nullptr);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const int min_epochs = traced ? 1 : kRssEpochs;
  double rss_mib = 0.0;
  for (int epoch = 0; report.errors.empty(); ++epoch) {
    if (epoch >= min_epochs && Clock::now() >= deadline) break;
    run_epoch(options, traced ? 1000 + epoch : epoch, traced, spans, rss_mib,
              report);
  }
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  run_phase(options, untraced_s, /*traced=*/false, report);
  if (options.trace && report.errors.empty())
    run_phase(options, options.seconds / 2, /*traced=*/true, report);
}

}  // namespace perfbench
