// tcp_verified: back-to-back TransferSession transfers over loopback TCP at
// a fixed <2,2,2> with the shipped defaults (syscall backend, in-memory
// source, fill + verify), timed from outside through the public API (ctor +
// start, wait_finished) and read back through telemetry_snapshot().
//
// Every transfer moves the same number of whole chunks; the seed only
// decides how they split across the files, so the work per transfer is the
// same for every seed. A traced run first repeats the untraced loop for half
// its time (the overhead baseline), then runs one more transfer of the same
// size with chunk tracing dense enough for >= 3000 samples per histogram.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "transfer/engine.hpp"

namespace perfbench {
namespace {

using automdt::transfer::EngineConfig;
using automdt::transfer::TransferSession;

constexpr int kFiles = 8;
constexpr int kMinTransfers = 5;
// 768 MiB in 256 KiB chunks. At >= 3000 chunks the traced transfer gives
// every histogram >= kTraceSamples samples and a p99 with >= 10 beyond it.
constexpr std::uint32_t kChunkBytes = 256 * 1024;
constexpr std::uint64_t kChunks = 3072;
constexpr std::uint64_t kTraceSamples = 3000;
constexpr double kTransferTimeoutS = 60.0;

/// Splits kChunks whole chunks over kFiles files at seeded cut points,
/// every file at least one chunk long.
std::vector<double> split_files(automdt::Rng& rng) {
  std::vector<std::uint64_t> cuts;
  while (cuts.size() < kFiles - 1) {
    const std::uint64_t cut = 1 + rng.next_u64() % (kChunks - 1);
    if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end())
      cuts.push_back(cut);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(kChunks);
  std::vector<double> sizes;
  std::uint64_t previous = 0;
  for (const std::uint64_t cut : cuts) {
    sizes.push_back(static_cast<double>((cut - previous) * kChunkBytes));
    previous = cut;
  }
  return sizes;
}

struct Transfer {
  bool finished = false;
  double setup_s = 0.0;
  double wait_s = 0.0;
  double cpu_s = 0.0;
  double snapshot_us = 0.0;
  double rss_mib = 0.0;
  automdt::telemetry::MetricsSnapshot snapshot;
};

Transfer run_transfer(EngineConfig config, const std::vector<double>& sizes,
                      Spans& spans, int track) {
  Transfer t;
  const Spans::Span root = spans.open(track, "transfer.session");
  const Spans::Span setup = spans.open(track, "transfer.setup", root.id);
  TransferSession session(std::move(config), sizes);
  session.start({2, 2, 2});
  t.setup_s = static_cast<double>(spans.close(setup)) * 1e-9;

  const double cpu0 = process_cpu_s();
  const Spans::Span wait = spans.open(track, "transfer.wait", root.id);
  t.finished = session.wait_finished(kTransferTimeoutS);
  t.wait_s = static_cast<double>(spans.close(wait)) * 1e-9;
  t.cpu_s = process_cpu_s() - cpu0;
  // Every buffer of the transfer is still live here: its peak footprint.
  t.rss_mib = resident_mib();

  const Spans::Span snap = spans.open(track, "telemetry.snapshot", root.id);
  t.snapshot = session.telemetry_snapshot();
  t.snapshot_us = static_cast<double>(spans.close(snap)) * 1e-3;
  spans.close(root);
  return t;
}

}  // namespace

void run_engine(const Options& options, Report& report) {
  automdt::Rng rng(options.seed);
  Spans untraced(nullptr);
  Spans traced(options.exporter);
  const int track = traced.track("transfer");

  // One transfer plus its gates; false once any gate failed.
  const auto transfer = [&](bool trace_phase) {
    EngineConfig config;  // shipped defaults: syscall backend, fill + verify
    config.backend = automdt::transfer::NetworkBackend::kTcp;
    config.chunk_bytes = kChunkBytes;
    if (trace_phase) {
      config.telemetry.exporter = options.exporter;
      config.telemetry.sample_every = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(1, kChunks / kTraceSamples));
    }
    const Transfer t = run_transfer(std::move(config), split_files(rng),
                                    trace_phase ? traced : untraced, track);
    const auto& snap = t.snapshot;
    const auto count = [&snap](const char* name) {
      return static_cast<std::uint64_t>(snap.value_or(name));
    };
    const std::uint64_t written = count("write.chunks");
    const std::uint64_t bad = count("write.verify_failures") +
                              count("net.frame_errors") +
                              count("net.send_failures") +
                              (kChunks - std::min(written, kChunks));
    report.attempted += kChunks;
    report.failed += std::min(bad, kChunks);

    const std::size_t errors_before = report.errors.size();
    const double bytes = snap.value_or("write.bytes");
    report.gate(t.finished, "transfer did not finish");
    report.gate(written == kChunks, "chunks written != chunks sent");
    report.gate(bytes == static_cast<double>(kChunks * kChunkBytes),
                "bytes written != bytes sent");
    report.gate(bad == 0, "verify failures, frame errors or send failures");
    report.gate(count("io.backend_uring") == 0,
                "tcp_verified did not run on the syscall backend");

    const std::string phase = trace_phase ? "traced." : "";
    const double mib = bytes / kMiB;
    report.sample(phase + "setup_s", t.setup_s);
    report.sample(phase + "goodput_mib_s", mib / t.wait_s);
    report.sample(phase + "cpu_ms_per_mib", t.cpu_s * 1e3 / mib);
    report.sample(phase + "session_ms", (t.setup_s + t.wait_s) * 1e3);
    report.sample(phase + "snapshot_us", t.snapshot_us);
    report.sample(phase + "rss_mib", t.rss_mib);
    if (trace_phase) {
      report.add_snapshot("engine.", snap);
      report.values["transfer.wall_s"] = t.wait_s;
      report.values["transfer.active_workers"] = 2;  // <2,2,2>, see above
    }
    return report.errors.size() == errors_before;
  };

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const auto t0 = Clock::now();
  for (int n = 0;
       n < kMinTransfers || seconds_between(t0, Clock::now()) < untraced_s;
       ++n) {
    if (!transfer(false)) break;
  }
  if (options.trace && report.errors.empty()) transfer(true);
}

}  // namespace perfbench
