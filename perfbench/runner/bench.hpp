// Shared plumbing of the benchmark runner: run options, the raw report that
// run.py turns into named metrics, CPU and memory probes, and the
// benchmark's own spans around calls into the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Span collector shared by the program's span seams and the benchmark's
  /// own spans; null on untraced runs.
  automdt::telemetry::TraceExporter* exporter = nullptr;
};

/// Raw measurements of one run. The runner measures and checks; run.py
/// derives every named metric from `values` and `samples`.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness or path-engagement gates; any entry fails the run.
  std::vector<std::string> errors;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;

  void gate(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void sample(const std::string& name, double v) {
    samples[name].push_back(v);
  }
  /// Copies every metric of a registry snapshot, names prefixed.
  void add_snapshot(const std::string& prefix,
                    const automdt::telemetry::MetricsSnapshot& snapshot);
  void write_json(std::ostream& os) const;
};

double seconds_between(Clock::time_point from, Clock::time_point to);
/// User + system CPU seconds of the whole process.
double process_cpu_s();
/// User + system CPU seconds of the calling thread.
double thread_cpu_s();
/// Current resident set of the process.
double resident_mib();

/// Benchmark-side spans, written into the run's TraceExporter on "bench"
/// tracks with explicit span/parent ids so run.py can compute self time.
/// Without an exporter a span still measures its duration but emits nothing.
class Spans {
 public:
  explicit Spans(automdt::telemetry::TraceExporter* exporter)
      : exporter_(exporter) {}

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t start_ns = 0;
    int track = -1;
    const char* name = "";
  };

  int track(const std::string& thread);
  Span open(int track, const char* name, std::uint64_t parent = 0);
  /// Emits the span and returns its duration in nanoseconds.
  std::uint64_t close(const Span& span);

 private:
  automdt::telemetry::TraceExporter* exporter_;
  std::atomic<std::uint64_t> next_id_{1};
};

void run_engine(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
void run_train(const Options& options, Report& report);

}  // namespace perfbench
