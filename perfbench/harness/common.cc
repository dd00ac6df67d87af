#include "perfbench/harness/common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, op_});
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped), so `index` is on top.
  open_.pop_back();
}

Samples Tracer::PerOpTotalMs(std::string_view name) const {
  std::map<uint32_t, int64_t> per_op;
  for (const Span& s : spans_) {
    if (name == s.name) per_op[s.op] += s.end_ns - s.start_ns;
  }
  Samples out;
  for (const auto& [op, ns] : per_op) out.Add(static_cast<double>(ns) / 1e6);
  return out;
}

Samples Tracer::PerCallMs(std::string_view name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::MedianChildCoverage(std::string_view root) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Samples coverage;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || root != s.name || s.end_ns <= s.start_ns) continue;
    coverage.Add(static_cast<double>(child_ns[i]) /
                 static_cast<double>(s.end_ns - s.start_ns));
  }
  return coverage.Quantile(0.5);
}

bool Tracer::WriteTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> summary;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    Totals& t = summary[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << JsonNumber(static_cast<double>(dur) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n],\"summary\":{";
  bool first = true;
  for (const auto& [name, t] : summary) {
    out << (first ? "" : ",") << "\n" << JsonString(name)
        << ":{\"count\":" << t.count
        << ",\"total_ms\":" << JsonNumber(static_cast<double>(t.total_ns) / 1e6)
        << ",\"self_ms\":" << JsonNumber(static_cast<double>(t.self_ns) / 1e6)
        << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

Schedule::Schedule(double seconds, size_t setups, size_t min_ops)
    : start_ns_(NowNs()), seconds_(seconds), setups_(setups),
      min_ops_(min_ops) {}

bool Schedule::Done(size_t ops) const {
  const double elapsed = MsSince(start_ns_) / 1e3;
  if (elapsed >= 4 * seconds_) return true;
  return elapsed >= seconds_ && ops >= min_ops_;
}

bool Schedule::SetupDue() {
  if (setups_done_ >= setups_) return false;
  const double elapsed = MsSince(start_ns_) / 1e3;
  // Set-up k runs once k/setups of the window has passed, starting at the
  // first operation, so the last one lands before the window ends.
  if (elapsed < seconds_ * static_cast<double>(setups_done_) /
                    static_cast<double>(setups_)) {
    return false;
  }
  ++setups_done_;
  return true;
}

void Outcome::AddOp(double op, double round, bool trace_run, bool traced) {
  op_ms.Add(op);
  round_ms.Add(round);
  if (!trace_run) return;
  if (traced) {
    traced_op_ms.Add(op);
  } else {
    plain_op_ms.Add(op);
    plain_round_ms.Add(round);
  }
}

void Outcome::SetupFail(const std::string& message) {
  setup_ok = false;
  if (errors.size() < 8) errors.push_back("set-up: " + message);
}

void Outcome::OpFail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

DriftProbe RunDriftProbe(bool smoke) {
  // What the engine does most, with no library code: clear a 16 MiB
  // open-addressing hash table (streaming writes), insert pseudo-random
  // keys (random access into a table larger than the per-core caches) and
  // probe as many again, half of them misses. Its time moves with the
  // shared-cache and memory contention the host imposes.
  const size_t slots = smoke ? (size_t{1} << 14) : (size_t{1} << 20);
  const size_t keys = slots / 2;
  const int reps = smoke ? 5 : 15;
  std::vector<uint64_t> table(2 * slots);
  Samples ms;
  uint64_t found = 0;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = NowNs();
    std::fill(table.begin(), table.end(), 0);
    Rng rng(0x5eedULL);
    const auto slot = [&](uint64_t key) {
      size_t i = (key * 0x9E3779B97F4A7C15ULL) >> 44 & (slots - 1);
      while (table[2 * i] != 0 && table[2 * i] != key) {
        i = (i + 1) & (slots - 1);
      }
      return i;
    };
    for (size_t k = 0; k < keys; ++k) {
      const uint64_t key = rng.Next() | 1;
      const size_t i = slot(key);
      table[2 * i] = key;
      table[2 * i + 1] = k;
    }
    Rng again(0x5eedULL);
    for (size_t k = 0; k < keys; ++k) {
      const uint64_t key = (k % 2 == 0 ? again.Next() : rng.Next()) | 1;
      found += table[2 * slot(key)] == key;
    }
    // Keep the probes inside the timed interval.
    asm volatile("" : "+r"(found) : : "memory");
    ms.Add(MsSince(start));
  }
  return DriftProbe{ms.Quantile(0.1), ms.Quantile(0.5)};
}

double PeakRssMb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not
  // do: Linux carries it across exec, so it would report the launching
  // Python interpreter's footprint whenever that is larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
