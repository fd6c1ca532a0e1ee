#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hcbench {

uint64_t HashQueries(const std::vector<PathQuery>& queries) {
  uint64_t h = 0x13198a2e03707344ULL;
  for (const PathQuery& q : queries) {
    hcpath::HashCombine(h, q.s);
    hcpath::HashCombine(h, q.t);
    hcpath::HashCombine(h, static_cast<uint64_t>(q.k));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double NowSeconds() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Tracer::Add(const std::string& name, double start, double end,
                     uint64_t parent, int lane, std::string note) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.id = spans_.size() + 1;
  s.lane = lane;
  s.note = std::move(note);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  // Children's covered time per parent, clipped to the parent's interval.
  // Children of one parent are recorded by one benchmark thread and do not
  // overlap, so a plain sum is their union.
  std::vector<double> covered(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent == 0 || s.parent > spans_.size()) continue;
    const Span& p = spans_[s.parent - 1];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::map<std::string, NameTotals> out;
  for (const Span& s : spans_) {
    NameTotals& t = out[s.name];
    const double dur = s.end - s.start;
    t.total += dur;
    t.self += std::max(0.0, dur - covered[s.id]);
    ++t.count;
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  s.lane, s.start * 1e6, (s.end - s.start) * 1e6);
    out << "{\"name\":\"" << JsonEscape(s.name) << "\"," << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (!s.note.empty()) out << ",\"note\":\"" << JsonEscape(s.note) << "\"";
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

bool ResetPeakRss() {
  // "5" resets the peak RSS counter (Linux >= 4.0, proc(5) clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

CpuTimes ReadCpuTimes() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

}  // namespace hcbench
