#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

double rusage_cpu_s(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"' << automdt::telemetry::json_escape(s) << '"';
}

}  // namespace

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double resident_mib() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / kMiB;
}

void Report::add_snapshot(const std::string& prefix,
                          const automdt::telemetry::MetricsSnapshot& snapshot) {
  for (const auto& s : snapshot.samples) values[prefix + s.name] = s.value;
}

void Report::write_json(std::ostream& os) const {
  os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) os << ",";
    write_string(os, errors[i]);
  }
  os << "],\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) os << ",";
    first = false;
    write_string(os, name);
    os << ":";
    write_number(os, v);
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [name, series] : samples) {
    if (!first) os << ",";
    first = false;
    write_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i) os << ",";
      write_number(os, series[i]);
    }
    os << "]";
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [name, text] : info) {
    if (!first) os << ",";
    first = false;
    write_string(os, name);
    os << ":";
    write_string(os, text);
  }
  os << "}}\n";
}

int Spans::track(const std::string& thread) {
  return exporter_ ? exporter_->track("bench", thread) : -1;
}

Spans::Span Spans::open(int track, const char* name, std::uint64_t parent) {
  return {next_id_.fetch_add(1, std::memory_order_relaxed), parent,
          automdt::telemetry::now_ns(), track, name};
}

std::uint64_t Spans::close(const Span& span) {
  const std::uint64_t duration = automdt::telemetry::now_ns() - span.start_ns;
  if (exporter_) {
    const std::string args = "\"span\":" + std::to_string(span.id) +
                             ",\"parent\":" + std::to_string(span.parent);
    exporter_->emit(span.track, span.name, span.start_ns, duration, {}, args);
  }
  return duration;
}

}  // namespace perfbench
