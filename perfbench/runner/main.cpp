// perfbench_runner: runs one benchmark workload against the program's public
// APIs and writes the raw measurements as JSON; run.py derives the named
// metrics from them.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --raw FILE [--spans FILE]
//
// Exits 0 whenever the raw file was written, including runs whose gates
// failed (the file lists them); 2 on bad usage.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"
#include "net/uring.hpp"
#include "telemetry/trace.hpp"

using namespace perfbench;

namespace {

// Span buffer bound for a traced run: room for every trainer span of a
// full-length training run plus the benchmark's own spans.
constexpr std::size_t kMaxSpans = 1u << 17;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --raw FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string raw_path;
  std::string span_path;
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value != "0";
      else if (key == "--raw") raw_path = value;
      else if (key == "--spans") span_path = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.workload.empty() || raw_path.empty() ||
      !(options.seconds > 0.0))
    return usage();

  automdt::set_log_level(automdt::LogLevel::kWarn);
  std::unique_ptr<automdt::telemetry::TraceExporter> exporter;
  if (options.trace) {
    exporter = std::make_unique<automdt::telemetry::TraceExporter>(kMaxSpans);
    options.exporter = exporter.get();
  }

  Report report;
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  report.values["trace_compiled_in"] =
      automdt::telemetry::kTraceCompiledIn ? 1.0 : 0.0;
  report.values["uring_available"] =
      automdt::net::UringRing::available() ? 1.0 : 0.0;
  try {
    if (options.workload == "tcp_verified")
      run_engine(options, report);
    else if (options.workload == "serve_64")
      run_serve(options, report);
    else if (options.workload == "train_offline")
      run_train(options, report);
    else
      return usage();
  } catch (const std::exception& e) {
    report.gate(false, std::string("exception: ") + e.what());
  }
  if (exporter) {
    report.values["spans.dropped"] = static_cast<double>(exporter->dropped());
    report.gate(span_path.empty() || exporter->write_file(span_path),
                "cannot write span file " + span_path);
  }

  std::ofstream out(raw_path);
  report.write_json(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 raw_path.c_str());
    return 1;
  }
  return 0;
}
