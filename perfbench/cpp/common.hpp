// Shared pieces of the benchmark program: options, the report printed as the
// last stdout line, the in-memory span log, and the round estimator every
// time-based end-to-end metric comes from.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A deliberate corruption applied to a check's input, so the benchmark's
/// own tests can show that every check is able to fail.
enum class Inject { kNone, kCodeBit, kSwapDigests, kDropRecord, kBerMismatch };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
  /// Directory spans are written to (relative to the working directory).
  std::string out_dir = ".bench_out";
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Deterministic 64-bit mixer: derives independent sub-seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// What one run prints: the operation tally and the metrics of the mode.
struct Report {
  /// False when a check could not be carried out at all; failed checks
  /// count in `failed` instead.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// One JSON object on one line.
  std::string to_json() const;
};

/// Spans recorded around public calls, kept in memory while the workload
/// runs and written out as a Chrome trace when it ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t op = -1;      // frame or command index the span belongs to
    std::int32_t parent = -1;  // index of the enclosing span, -1 at top
  };

  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Appends a finished span and returns its index.
  std::int32_t add(const char* name, std::uint64_t begin_ns,
                   std::uint64_t end_ns, std::int64_t op,
                   std::int32_t parent = -1);

  /// Sets the end of a span opened with `add(name, t, t, ...)`.
  void close(std::int32_t index, std::uint64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes the spans as Chrome-trace JSON; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Sample statistics.
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Per-round timing of one continuous stream cut into rounds of equal
/// work. `kept` are the indices of the rounds the estimator keeps.
struct RoundEstimate {
  double ops_per_s = 0.0;
  std::vector<std::size_t> kept;
  double whole_run_ops_per_s = 0.0;  // diagnostics only
};

/// The host-speed-robust estimator: keep the fastest tenth of the rounds
/// (at least three) and report the median round rate among them. Periods
/// when the host itself ran slow stretch rounds and drop out; the median
/// of the kept rounds keeps a single lucky round from deciding the value.
RoundEstimate estimate_rounds(const std::vector<double>& round_seconds,
                              double ops_per_round);

/// Parses "none|code_bit|swap_digests|drop_record|ber_mismatch".
bool parse_inject(const std::string& s, Inject& out);

}  // namespace perfbench
