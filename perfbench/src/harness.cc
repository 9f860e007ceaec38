#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMiB(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  double pos = q * static_cast<double>(samples->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + frac * ((*samples)[hi] - (*samples)[lo]);
}

LatencySummary Summarize(std::vector<double> samples_ms) {
  LatencySummary summary;
  summary.samples = samples_ms.size();
  summary.p50_ms = Percentile(&samples_ms, 0.5);
  summary.p90_ms = Percentile(&samples_ms, 0.9);
  return summary;
}

void AddEndToEnd(Result* result, double setup_s, int64_t ops, double wall_s,
                 const LatencySummary& latency, double peak_rss_mib) {
  result->Add("setup_s", setup_s, "s");
  result->Add("ops_per_s", wall_s > 0 ? static_cast<double>(ops) / wall_s : 0,
              "1/s");
  result->Add("op_p50_ms", latency.p50_ms, "ms");
  result->Add("op_p90_ms", latency.p90_ms, "ms");
  result->Add("peak_rss_mb", peak_rss_mib, "MiB");
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  MaybeStep();
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::MaybeStep() {
  int64_t now = NowNs();
  if (cpus_.size() < 2 || now - last_step_ns_ < kStepNs) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
  last_step_ns_ = now;
}

int Tracer::Begin(const char* name, int64_t op) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, op});
  int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::SelfTimeMs(const std::string& name) const {
  // Children of one span never overlap (one thread), so the covered part
  // of a span is the sum of its children's durations.
  int64_t self_ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) self_ns += s.end_ns - s.start_ns;
    if (s.parent >= 0 && name == spans_[s.parent].name) {
      self_ns -= s.end_ns - s.start_ns;
    }
  }
  return NsToMs(self_ns);
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += NsToMs(s.end_ns - s.start_ns);
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const Tracer* t : tracers) {
    if (!t->spans_.empty()) origin = std::min(origin, t->spans_[0].start_ns);
  }
  const char* sep = "";
  out << "[";
  for (const Tracer* t : tracers) {
    for (size_t i = 0; i < t->spans_.size(); ++i) {
      const Span& s = t->spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"id\":%zu,\"parent\":%d,\"op\":%lld}}",
                    sep, s.name, t->tid_,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent, static_cast<long long>(s.op));
      out << buf;
      sep = ",";
    }
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

uint64_t CounterIn(const rtp::obs::MetricsSnapshot& delta,
                   const std::string& name) {
  for (const auto& [n, v] : delta.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace perfbench
