#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::int32_t SpanLog::add(const char* name, std::uint64_t begin_ns,
                          std::uint64_t end_ns, std::int64_t op,
                          std::int32_t parent) {
  spans_.push_back(Span{name, begin_ns, end_ns, op, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(1e-3 * static_cast<double>(s.end_ns - s.begin_ns));
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  f << "{\"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %lld, "
                  "\"parent\": %d}}%s\n",
                  s.name, 1e-3 * static_cast<double>(s.begin_ns - origin),
                  1e-3 * static_cast<double>(s.end_ns - s.begin_ns),
                  static_cast<long long>(s.op), s.parent,
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

RoundEstimate estimate_rounds(const std::vector<double>& round_seconds,
                              double ops_per_round) {
  RoundEstimate est;
  const std::size_t n = round_seconds.size();
  if (n == 0) return est;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return round_seconds[a] < round_seconds[b];
  });
  const std::size_t keep = std::min(n, std::max<std::size_t>(3, n / 10));
  est.kept.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep));
  std::vector<double> kept_seconds;
  for (std::size_t i : est.kept) kept_seconds.push_back(round_seconds[i]);
  est.ops_per_s = ops_per_round / median(kept_seconds);
  const double total =
      std::accumulate(round_seconds.begin(), round_seconds.end(), 0.0);
  est.whole_run_ops_per_s = ops_per_round * static_cast<double>(n) / total;
  return est;
}

bool parse_inject(const std::string& s, Inject& out) {
  if (s == "none") out = Inject::kNone;
  else if (s == "code_bit") out = Inject::kCodeBit;
  else if (s == "swap_digests") out = Inject::kSwapDigests;
  else if (s == "drop_record") out = Inject::kDropRecord;
  else if (s == "ber_mismatch") out = Inject::kBerMismatch;
  else return false;
  return true;
}

}  // namespace perfbench
