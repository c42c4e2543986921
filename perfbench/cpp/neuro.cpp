// Streamed 128x128 recording: SignalSource -> PixelBank capture ->
// FrameCodec -> serial link / CRC / WordMerger -> host decode ->
// StreamSink, driven through `core::ChipSession` as one continuous stream.
//
// neuro_dense        1 thread, dense kernel, ~1 mV travelling wave,
//                    lossless link.
// neuro_sparse_lossy 2 stage threads, quiescence threshold with a few
//                    percent of pixels active, BER 1e-4 with the default
//                    retry policy.
//
// The die is the same in every run (kDieSeed); the field, the activity map
// and the link noise come from --seed.
//
// Timing: every frame is stamped when the capture stage first evaluates
// the benchmark's source for it (column 0) and when it reaches the sink.
// Rounds of equal frame counts are cut from sink arrival times, so the
// pipeline's fill and drain never fall inside a round.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stream.hpp"
#include "core/chip_session.hpp"
#include "core/wire.hpp"
#include "dnachip/serial.hpp"
#include "neurochip/array.hpp"
#include "neurochip/signal_source.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using biosense::Rng;
using biosense::StreamSink;
using biosense::core::ChipSession;
using biosense::core::FrameCodec;
using biosense::core::FrameWire;
using biosense::core::SessionConfig;
using biosense::core::SessionReport;
using biosense::neurochip::NeuroChip;
using biosense::neurochip::NeuroChipConfig;
using biosense::neurochip::NeuroFrame;
using biosense::neurochip::SignalSource;

constexpr double kPi = 3.14159265358979323846;

struct NeuroSpec {
  const char* name;
  bool sparse = false;
  int threads = 1;
  double ber = 0.0;
  int round_frames = 12;  // frames per timing round (~0.15 s)
  int warmup_rounds = 3;  // untimed rounds before the timed stream
};

/// One die for every run: die mismatch sets the decoded scale (see the
/// field-tracking check), so a fixed die keeps that check's outcome the same
/// on every seed.
constexpr std::uint64_t kDieSeed = 1;

/// Field tracking tolerates this much deviation of the median pixel slope
/// from unit gain. A block's median over ~960 pixel slopes scatters by well
/// under 1 %, and the gain chains are calibrated to the nominal gain.
constexpr double kSlopeTolerance = 0.05;

// ---------------------------------------------------------------------------
// The benchmark's own signal: an analytic field it can evaluate again when
// checking the decoded frames.

class BenchField final : public SignalSource {
 public:
  /// Dense: a plane wave of amplitude 1 mV crossing the whole array.
  /// Sparse: `spots` discs of 3-5 pixels radius oscillating at 1 mV, 0 V
  /// elsewhere (below the chip's quiescence threshold).
  BenchField(int rows, int cols, bool sparse, std::uint64_t seed)
      : rows_(rows), cols_(cols), sparse_(sparse) {
    Rng rng(seed);
    amplitude_ = 1e-3;
    if (!sparse) {
      freq_hz_ = rng.uniform(60.0, 120.0);
      const double theta = rng.uniform(0.0, 2.0 * kPi);
      const double wavelength_px = rng.uniform(40.0, 100.0);
      k_col_ = 2.0 * kPi * std::cos(theta) / wavelength_px;
      k_row_ = 2.0 * kPi * std::sin(theta) / wavelength_px;
      phase_ = rng.uniform(0.0, 2.0 * kPi);
      return;
    }
    col_entries_.resize(static_cast<std::size_t>(cols));
    const int n_spots = 10;
    for (int s = 0; s < n_spots; ++s) {
      Spot spot;
      spot.r0 = rng.uniform(6.0, rows - 7.0);
      spot.c0 = rng.uniform(6.0, cols - 7.0);
      spot.radius = rng.uniform(3.0, 5.0);
      spot.freq_hz = rng.uniform(50.0, 150.0);
      spot.phase = rng.uniform(0.0, 2.0 * kPi);
      spots_.push_back(spot);
    }
    std::vector<char> active(static_cast<std::size_t>(rows * cols), 0);
    for (int c = 0; c < cols; ++c) {
      for (int r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < spots_.size(); ++s) {
          const double dr = r - spots_[s].r0;
          const double dc = c - spots_[s].c0;
          if (dr * dr + dc * dc <= spots_[s].radius * spots_[s].radius) {
            col_entries_[static_cast<std::size_t>(c)].push_back(
                {r, static_cast<int>(s)});
            active[static_cast<std::size_t>(r * cols + c)] = 1;
          }
        }
      }
    }
    active_pixels_ = static_cast<int>(std::count(active.begin(), active.end(), 1));
  }

  /// Stamps `stamps[k]` with the time the capture of frame k first asks
  /// for column 0 (frame k starts at k * period).
  void enable_stamps(std::vector<std::uint64_t>* stamps, double period) {
    stamps_ = stamps;
    period_ = period;
  }

  double eval(int row, int col, double t) const override {
    if (!sparse_) {
      return amplitude_ *
             std::sin(2.0 * kPi * freq_hz_ * t - k_col_ * col - k_row_ * row + phase_);
    }
    double v = 0.0;
    for (const auto& e : col_entries_[static_cast<std::size_t>(col)]) {
      if (e.row == row) v += spot_value(spots_[static_cast<std::size_t>(e.spot)], t);
    }
    return v;
  }

  void eval_column(int col, double t, std::span<double> out) const override {
    if (col == 0 && stamps_ != nullptr) {
      const long k = std::lround(t / period_);
      if (k >= 0 && static_cast<std::size_t>(k) < stamps_->size() &&
          (*stamps_)[static_cast<std::size_t>(k)] == 0) {
        (*stamps_)[static_cast<std::size_t>(k)] = now_ns();
      }
    }
    if (!sparse_) {
      const double base = 2.0 * kPi * freq_hz_ * t - k_col_ * col + phase_;
      for (std::size_t r = 0; r < out.size(); ++r) {
        out[r] = amplitude_ * std::sin(base - k_row_ * static_cast<double>(r));
      }
      return;
    }
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& e : col_entries_[static_cast<std::size_t>(col)]) {
      out[static_cast<std::size_t>(e.row)] +=
          spot_value(spots_[static_cast<std::size_t>(e.spot)], t);
    }
  }

  int active_pixels() const { return sparse_ ? active_pixels_ : rows_ * cols_; }

 private:
  struct Spot {
    double r0 = 0, c0 = 0, radius = 0, freq_hz = 0, phase = 0;
  };
  struct Entry {
    int row = 0;
    int spot = 0;
  };

  double spot_value(const Spot& s, double t) const {
    return amplitude_ * std::sin(2.0 * kPi * s.freq_hz * t + s.phase);
  }

  int rows_;
  int cols_;
  bool sparse_;
  double amplitude_ = 0.0;
  double freq_hz_ = 0.0, k_col_ = 0.0, k_row_ = 0.0, phase_ = 0.0;
  std::vector<Spot> spots_;
  std::vector<std::vector<Entry>> col_entries_;
  int active_pixels_ = 0;
  std::vector<std::uint64_t>* stamps_ = nullptr;
  double period_ = 0.0;
};

std::uint64_t frame_hash(const NeuroFrame& f) {
  std::uint64_t h = kFnvOffset;
  h = fnv(h, &f.rows, sizeof(f.rows));
  h = fnv(h, &f.cols, sizeof(f.cols));
  h = fnv(h, &f.masked, sizeof(f.masked));
  h = fnv(h, &f.t, sizeof(f.t));
  h = fnv(h, f.codes.data(), f.codes.size() * sizeof(std::int32_t));
  h = fnv(h, f.v_in.data(), f.v_in.size() * sizeof(double));
  return h;
}

/// Frame times exactly as the session computes them: t0 + k * period.
struct Segment {
  double t0 = 0.0;
  int first = 0;  // global index of the segment's first frame
  int n = 0;
};

// ---------------------------------------------------------------------------
// Field tracking, one check per block of frames (dense workload): the
// decoded v_in of a fixed sample of pixels against the benchmark's analytic
// field. Each pixel's mean is removed from both (the DC level holds the
// chip's fixed pattern, the charge-injection residual); the chip's periodic
// recalibration moves that level, so the mean is taken per calibration
// period within the block. Each pixel's slope is then fitted, and
//  - the block's median slope must be 1 within kSlopeTolerance, and
//  - every frame's RMS residual around the fitted lines must be within two
//    input-referred LSBs: quantization plus ~1 LSB of temporal noise.

class FieldTracker {
 public:
  FieldTracker(const BenchField& field, const NeuroChip& chip, int block,
               double lsb_in)
      : field_(&field), dwell_(chip.timing().column_dwell),
        frame_period_(chip.timing().frame_period),
        recal_interval_(chip.config().recalibration_interval.value()),
        block_(block), lsb_in_(lsb_in) {
    const int rows = chip.rows();
    const int cols = chip.cols();
    for (int p = 0; p < rows * cols; p += kStride) {
      row_.push_back(p / cols);
      col_.push_back(p % cols);
    }
    const std::size_t n = row_.size() * static_cast<std::size_t>(block);
    x_.assign(n, 0.0);
    y_.assign(n, 0.0);
    slope_.assign(row_.size(), 0.0);
    period_of_.assign(static_cast<std::size_t>(block), 0);
  }

  /// Adds frame `g` (frames arrive in order); returns true when it closed a
  /// block, whose verdicts are then in `last_block_ok()` and `frame_ok()`.
  bool add(int g, const NeuroFrame& frame) {
    const std::size_t s = row_.size();
    const auto pos = static_cast<std::size_t>(g % block_);
    for (std::size_t i = 0; i < s; ++i) {
      x_[pos * s + i] = field_->eval(row_[i], col_[i], frame.t + col_[i] * dwell_);
      y_[pos * s + i] = frame.v_in[static_cast<std::size_t>(row_[i] * frame.cols + col_[i])];
    }
    // The chip recalibrates after the capture in which its recalibration
    // interval elapses (NeuroChip::capture_frame_into).
    period_of_[pos] = calibration_period_;
    if (frame.t + frame_period_ - last_calibration_t_ >= recal_interval_) {
      ++calibration_period_;
      last_calibration_t_ = frame.t + frame_period_;
    }
    if (pos + 1 != static_cast<std::size_t>(block_)) return false;
    evaluate();
    return true;
  }

  bool last_block_ok() const { return block_ok_; }
  const std::vector<char>& frame_ok() const { return frame_ok_; }
  std::uint64_t blocks() const { return blocks_; }
  const std::vector<double>& block_slopes() const { return block_slopes_; }
  double max_residual_v() const { return max_residual_v_; }
  double lsb_in_v() const { return lsb_in_; }

 private:
  static constexpr int kStride = 17;  // coprime with the column count

  void evaluate() {
    const std::size_t s = row_.size();
    const auto nb = static_cast<std::size_t>(block_);
    // Calibration periods in the block, numbered from its first frame's.
    std::vector<std::size_t> part(nb);
    for (std::size_t k = 0; k < nb; ++k) part[k] = period_of_[k] - period_of_[0];
    const std::size_t parts = part[nb - 1] + 1;
    std::vector<double> xm(parts), ym(parts), n(parts);
    for (std::size_t i = 0; i < s; ++i) {
      std::fill(xm.begin(), xm.end(), 0.0);
      std::fill(ym.begin(), ym.end(), 0.0);
      std::fill(n.begin(), n.end(), 0.0);
      for (std::size_t k = 0; k < nb; ++k) {
        xm[part[k]] += x_[k * s + i];
        ym[part[k]] += y_[k * s + i];
        n[part[k]] += 1.0;
      }
      double sxy = 0.0, sxx = 0.0;
      for (std::size_t k = 0; k < nb; ++k) {
        x_[k * s + i] -= xm[part[k]] / n[part[k]];
        y_[k * s + i] -= ym[part[k]] / n[part[k]];
        sxy += x_[k * s + i] * y_[k * s + i];
        sxx += x_[k * s + i] * x_[k * s + i];
      }
      slope_[i] = sxx > 0.0 ? sxy / sxx : 0.0;
    }
    const double med = median(slope_);
    block_slopes_.push_back(med);
    block_ok_ = std::fabs(med - 1.0) <= kSlopeTolerance;
    frame_ok_.assign(nb, 1);
    for (std::size_t k = 0; k < nb; ++k) {
      double ss = 0.0;
      for (std::size_t i = 0; i < s; ++i) {
        const double e = y_[k * s + i] - slope_[i] * x_[k * s + i];
        ss += e * e;
      }
      const double rms = std::sqrt(ss / static_cast<double>(s));
      max_residual_v_ = std::max(max_residual_v_, rms);
      frame_ok_[k] = rms <= 2.0 * lsb_in_ ? 1 : 0;
    }
    ++blocks_;
  }

  const BenchField* field_;
  double dwell_;
  double frame_period_;
  double recal_interval_;
  int block_;
  double lsb_in_;
  std::vector<int> row_, col_;
  std::vector<double> x_, y_, slope_;  // [frame in block][sampled pixel]
  std::vector<std::uint64_t> period_of_;  // calibration period of each frame
  std::uint64_t calibration_period_ = 0;
  double last_calibration_t_ = 0.0;
  bool block_ok_ = true;
  std::vector<char> frame_ok_;
  std::uint64_t blocks_ = 0;
  std::vector<double> block_slopes_;
  double max_residual_v_ = 0.0;
};

// ---------------------------------------------------------------------------
// The sink: stamps arrivals, hashes every frame, checks cheap invariants,
// and feeds the field tracker.

class BenchSink final : public StreamSink<NeuroFrame> {
 public:
  BenchSink(std::size_t total, double period, int code_limit, Inject inject,
            FieldTracker* tracker)
      : arrival_(total, 0), hash_(total, 0), ok_(total, 0),
        period_(period), code_limit_(code_limit), inject_(inject), tracker_(tracker) {}

  void begin_segment(const Segment& seg) { seg_ = seg; k_ = 0; }

  void on_item(const NeuroFrame& frame) override {
    const std::uint64_t t_arrive = now_ns();
    const int g = seg_.first + k_;
    ++k_;
    if (g < 0 || static_cast<std::size_t>(g) >= hash_.size()) {
      ++overflow_;
      return;
    }
    const auto gi = static_cast<std::size_t>(g);
    arrival_[gi] = t_arrive;
    if (inject_ == Inject::kCodeBit && g == kInjectFrame) {
      scratch_ = frame;
      scratch_.codes[0] ^= 1;  // one flipped code bit
      hash_[gi] = frame_hash(scratch_);
    } else {
      hash_[gi] = frame_hash(frame);
    }
    const double expected_t = seg_.t0 + (g - seg_.first) * period_;
    bool ok = frame.t == expected_t && frame.masked == 0 &&
              frame.codes.size() == frame.v_in.size() &&
              frame.codes.size() == static_cast<std::size_t>(frame.rows * frame.cols);
    for (std::int32_t c : frame.codes) ok = ok && c >= -code_limit_ && c <= code_limit_;
    ok_[gi] = ok ? 1 : 0;
    if (tracker_ != nullptr && ok && tracker_->add(g, frame)) {
      if (!tracker_->last_block_ok()) ++failed_blocks_;
      const auto& fok = tracker_->frame_ok();
      for (std::size_t k = 0; k < fok.size(); ++k) {
        if (!fok[k]) ok_[gi + 1 - fok.size() + k] = 0;
      }
    }
  }

  static constexpr int kInjectFrame = 5;

  const std::vector<std::uint64_t>& arrival() const { return arrival_; }
  const std::vector<std::uint64_t>& hashes() const { return hash_; }
  const std::vector<char>& ok() const { return ok_; }
  std::size_t overflow() const { return overflow_; }
  std::uint64_t failed_blocks() const { return failed_blocks_; }

 private:
  std::vector<std::uint64_t> arrival_;
  std::vector<std::uint64_t> hash_;
  std::vector<char> ok_;
  double period_;
  int code_limit_;
  Inject inject_;
  FieldTracker* tracker_;
  Segment seg_{};
  int k_ = 0;
  std::size_t overflow_ = 0;
  std::uint64_t failed_blocks_ = 0;
  NeuroFrame scratch_;
};

/// Collects frame hashes of a reference capture.
class HashSink final : public StreamSink<NeuroFrame> {
 public:
  void on_item(const NeuroFrame& frame) override { hashes.push_back(frame_hash(frame)); }
  std::vector<std::uint64_t> hashes;
};

NeuroChipConfig chip_config(const NeuroSpec& spec) {
  NeuroChipConfig cfg;  // the paper chip: 128x128, 16 channels, 2 kframes/s
  if (spec.sparse) cfg.quiescence_threshold = biosense::Voltage(50e-6);
  return cfg;
}

SessionConfig session_config(const NeuroSpec& spec) {
  SessionConfig sc;
  sc.bit_error_rate = spec.ber;
  sc.name.clear();  // no registry instruments on the measured path
  return sc;
}

double adc_lsb(const NeuroChipConfig& cfg) {
  return 2.0 * cfg.adc.full_scale.value() / static_cast<double>(1 << cfg.adc.bits);
}

/// First-attempt CRC rejections against the binomial for the link BER:
/// each 24-bit data frame is rejected when any of its bits flipped.
double binomial_z(std::uint64_t rejected, std::uint64_t words, double ber) {
  const double p = 1.0 - std::pow(1.0 - ber, 24.0);
  const double n = static_cast<double>(words);
  const double mean = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  return sd > 0.0 ? (static_cast<double>(rejected) - mean) / sd : 0.0;
}

// ---------------------------------------------------------------------------
// Traced layer phase: the same frames through each public layer call.

struct LayerTimes {
  SpanLog spans{4096};
  std::size_t mismatches = 0;  // parts-path decode differing from whole
  double sum_whole_us = 0.0;
  double sum_parts_us = 0.0;
};

void run_layer_phase(NeuroChip& chip, const BenchField& field,
                     const SessionConfig& sc, std::uint64_t link_seed,
                     double t_start, int frames, LayerTimes& lt) {
  const double period = (1.0 / chip.config().frame_rate).value();
  const FrameCodec codec(adc_lsb(chip.config()), chip.nominal_conversion_gain());
  FrameWire wire(codec, sc.bit_error_rate, sc.link_faults, sc.retry);
  Rng master(link_seed);
  NeuroFrame captured, whole, parts;
  std::vector<std::uint16_t> words;
  std::vector<bool> bits, rx;
  std::vector<std::optional<std::uint16_t>> lenient;
  biosense::dnachip::WordMerger merger(0);
  for (int k = 0; k < frames; ++k) {
    const auto seq = static_cast<std::uint16_t>(k & 0xffff);
    const Rng link_rng = master.fork();

    std::uint64_t t0 = now_ns();
    chip.capture_frame_into(field, t_start + k * period, captured);
    std::uint64_t t1 = now_ns();
    lt.spans.add("neurochip.capture", t0, t1, k);

    whole = captured;
    t0 = now_ns();
    (void)wire.process(whole, seq, link_rng);
    t1 = now_ns();
    lt.spans.add("core.wire", t0, t1, k);
    lt.sum_whole_us += 1e-3 * static_cast<double>(t1 - t0);

    // The same path from its parts, with the same link stream.
    parts = captured;
    const std::uint64_t p0 = now_ns();
    const std::int32_t top = lt.spans.add("core.wire_parts", p0, p0, k);
    t0 = now_ns();
    codec.encode(parts, seq, words);
    t1 = now_ns();
    lt.spans.add("core.encode", t0, t1, k, top);
    t0 = now_ns();
    biosense::dnachip::encode_data_into(words, bits);
    t1 = now_ns();
    lt.spans.add("dnachip.frame_bits", t0, t1, k, top);
    biosense::dnachip::SerialLink link(sc.bit_error_rate, link_rng);
    merger.reset(words.size());
    for (int attempt = 1; attempt <= sc.retry.max_attempts; ++attempt) {
      t0 = now_ns();
      link.transfer_into(bits, rx);
      t1 = now_ns();
      lt.spans.add("dnachip.link", t0, t1, k, top);
      t0 = now_ns();
      biosense::dnachip::decode_data_lenient_into(rx, lenient);
      t1 = now_ns();
      lt.spans.add("dnachip.lenient_decode", t0, t1, k, top);
      t0 = now_ns();
      (void)merger.absorb(lenient);
      t1 = now_ns();
      lt.spans.add("dnachip.merge", t0, t1, k, top);
      if (merger.complete()) break;
    }
    t0 = now_ns();
    (void)codec.decode(merger.words(), seq, parts);
    t1 = now_ns();
    lt.spans.add("core.decode", t0, t1, k, top);
    lt.spans.close(top, now_ns());
    if (frame_hash(parts) != frame_hash(whole)) ++lt.mismatches;
  }
  // Parts total: the sum of the leaf spans (not the enclosing span, which
  // also holds the span bookkeeping itself).
  for (const auto& s : lt.spans.spans()) {
    if (s.parent >= 0) lt.sum_parts_us += 1e-3 * static_cast<double>(s.end_ns - s.begin_ns);
  }
}

// ---------------------------------------------------------------------------

Report run_neuro(const NeuroSpec& spec, const Options& opts, std::uint64_t start_ns) {
  Report report;
  biosense::set_max_threads(spec.threads);
  const NeuroChipConfig cfg = chip_config(spec);
  const std::uint64_t link_seed = mix_seed(opts.seed, 2);
  const std::uint64_t field_seed = mix_seed(opts.seed, 3);

  // --- set-up: build and calibrate the chip, build the session -----------
  const std::uint64_t c0 = now_ns();
  NeuroChip chip(cfg, Rng(kDieSeed));
  const std::uint64_t c1 = now_ns();
  chip.calibrate_all();
  const std::uint64_t c2 = now_ns();
  const SessionConfig sc = session_config(spec);
  ChipSession session(chip, sc, Rng(link_seed));
  BenchField field(cfg.rows, cfg.cols, spec.sparse, field_seed);
  const double period = (1.0 / cfg.frame_rate).value();
  const std::uint64_t setup_end = now_ns();

  // --- warm-up segment: fills caches and sizes the timed segment ---------
  // The stream is warm-up + rounds * R + 1 frames; with a warm-up of
  // warmup_rounds * R - 1 frames that is a whole number of R-frame blocks.
  const int R = spec.round_frames;
  const int warm = spec.warmup_rounds * R - 1;
  const std::size_t max_frames = 1 << 16;
  std::vector<std::uint64_t> stamps(max_frames, 0);
  field.enable_stamps(&stamps, period);
  const int code_limit = 1 << (cfg.adc.bits - 1);
  std::optional<FieldTracker> tracker;
  if (!spec.sparse) {
    tracker.emplace(field, chip, R, adc_lsb(cfg) / chip.nominal_conversion_gain());
  }
  BenchSink sink(max_frames, period, code_limit, opts.inject,
                 tracker ? &*tracker : nullptr);
  std::vector<Segment> segments;
  segments.push_back(Segment{0.0, 0, warm});
  sink.begin_segment(segments.back());
  const SessionReport warm_report = session.run(field, 0.0, warm, sink);
  // Rate guess from the warm-up's second half (its first frames pay the
  // pipeline fill and cold caches).
  const auto half = static_cast<std::size_t>(warm / 2);
  const double warm_s =
      1e-9 * static_cast<double>(sink.arrival()[static_cast<std::size_t>(warm - 1)] -
                                 sink.arrival()[half]);
  const double rate_guess =
      static_cast<double>(static_cast<std::size_t>(warm - 1) - half) / std::max(warm_s, 1e-6);
  const double budget_s = std::max(1.0, opts.seconds - 1e-9 * static_cast<double>(now_ns() - setup_end));
  int rounds = static_cast<int>(budget_s * rate_guess / R);
  rounds = std::clamp(rounds, 8, (static_cast<int>(max_frames) - warm - 1) / R);
  const int n_main = rounds * R + 1;

  // --- timed segment: one continuous stream --------------------------------
  const double t_main = warm * period;
  segments.push_back(Segment{t_main, warm, n_main});
  sink.begin_segment(segments.back());
  const SessionReport main_report = session.run(field, t_main, n_main, sink);
  const double rss = peak_rss_mib();
  const int n_total = warm + n_main;
  SessionReport total = warm_report;
  total.frames += main_report.frames;
  total.wire += main_report.wire;

  // Rounds from sink arrivals of the timed segment.
  std::vector<double> round_s;
  for (int j = 0; j < rounds; ++j) {
    const auto a = static_cast<std::size_t>(warm + j * R);
    const auto b = static_cast<std::size_t>(warm + (j + 1) * R);
    round_s.push_back(1e-9 * static_cast<double>(sink.arrival()[b] - sink.arrival()[a]));
  }
  const RoundEstimate est = estimate_rounds(round_s, R);
  std::fprintf(stderr, "ROUNDS %s", spec.name);
  for (double r : round_s) std::fprintf(stderr, " %.6f", r);
  std::fprintf(stderr, "\n");
  std::vector<double> kept_latency_us;
  for (std::size_t j : est.kept) {
    for (int i = 1; i <= R; ++i) {
      const auto g = static_cast<std::size_t>(warm + static_cast<int>(j) * R + i);
      kept_latency_us.push_back(1e-3 * static_cast<double>(sink.arrival()[g] - stamps[g]));
    }
  }

  // --- checks ----------------------------------------------------------------
  // Operations: every frame, plus (dense) one field-tracking check per block
  // of R frames.
  const std::uint64_t blocks = tracker ? static_cast<std::uint64_t>(n_total / R) : 0;
  report.attempted = static_cast<std::uint64_t>(n_total) + blocks;
  std::vector<char> frame_ok(sink.ok().begin(), sink.ok().begin() + n_total);
  // Reference: a twin chip from the same config and die, captured with
  // record_stream (no wire), in the same segments.
  {
    NeuroChip twin(cfg, Rng(kDieSeed));
    twin.calibrate_all();
    BenchField twin_field(cfg.rows, cfg.cols, spec.sparse, field_seed);
    HashSink ref;
    for (const auto& seg : segments) twin.record_stream(twin_field, seg.t0, seg.n, ref);
    for (int g = 0; g < n_total; ++g) {
      if (ref.hashes[static_cast<std::size_t>(g)] != sink.hashes()[static_cast<std::size_t>(g)]) {
        frame_ok[static_cast<std::size_t>(g)] = 0;
      }
    }
  }
  // Lossy link: every frame complete, first-attempt rejections binomial.
  std::uint64_t extra_failed = 0;
  double z = 0.0;
  if (spec.ber > 0.0) {
    extra_failed += total.wire.incomplete_frames;
    const double claimed_ber = opts.inject == Inject::kBerMismatch ? 1.5 * spec.ber : spec.ber;
    z = binomial_z(total.wire.recovered_words, total.wire.words, claimed_ber);
    if (std::fabs(z) > 6.0) ++extra_failed;
  }
  // Threads: a one-thread twin session reproduces the first frames and the
  // warm-up's link traffic (the link noise is forked in capture order).
  if (spec.threads > 1) {
    biosense::set_max_threads(1);
    NeuroChip twin(cfg, Rng(kDieSeed));
    twin.calibrate_all();
    ChipSession twin_session(twin, sc, Rng(link_seed));
    BenchField twin_field(cfg.rows, cfg.cols, spec.sparse, field_seed);
    HashSink ref;
    const int prefix = std::min(n_main, 3 * R);
    const SessionReport twin_warm = twin_session.run(twin_field, 0.0, warm, ref);
    twin_session.run(twin_field, t_main, prefix, ref);
    for (std::size_t g = 0; g < ref.hashes.size(); ++g) {
      if (ref.hashes[g] != sink.hashes()[g]) frame_ok[g] = 0;
    }
    const auto& a = warm_report.wire;
    const auto& b = twin_warm.wire;
    if (a.words != b.words || a.bits != b.bits || a.attempts != b.attempts ||
        a.retries != b.retries || a.recovered_words != b.recovered_words ||
        a.lost_words != b.lost_words) {
      std::fill(frame_ok.begin(), frame_ok.begin() + warm, 0);
    }
    biosense::set_max_threads(spec.threads);
  }
  for (char ok : frame_ok) report.failed += ok ? 0 : 1;
  report.failed += extra_failed + sink.overflow();
  if (tracker) report.failed += sink.failed_blocks() + (blocks - tracker->blocks());

  const double bytes_per_frame =
      static_cast<double>(total.wire.bits) / 8.0 / static_cast<double>(total.frames);
  std::fprintf(stderr,
               "[%s] frames=%d rounds=%d kept=%zu est=%.2f fps whole=%.2f fps "
               "p50=%.0f us attempts/frame=%.3f lost=%llu z=%.2f active_px=%d\n",
               spec.name, n_total, rounds, est.kept.size(), est.ops_per_s,
               est.whole_run_ops_per_s, median(kept_latency_us),
               static_cast<double>(total.wire.attempts) / total.frames,
               static_cast<unsigned long long>(total.wire.lost_words), z,
               field.active_pixels());
  std::fprintf(stderr, "[%s] setup raw=%.4f construct=%.4f calibrate=%.4f\n", spec.name,
               1e-9 * static_cast<double>(setup_end - start_ns),
               1e-9 * static_cast<double>(c1 - c0), 1e-9 * static_cast<double>(c2 - c1));
  if (tracker) {
    const auto& bs = tracker->block_slopes();
    std::fprintf(stderr,
                 "[%s] field: %llu blocks, %llu off unit slope, median slope %.4f "
                 "[%.4f, %.4f], max residual %.1f uV, lsb_in %.1f uV\n",
                 spec.name, static_cast<unsigned long long>(tracker->blocks()),
                 static_cast<unsigned long long>(sink.failed_blocks()), median(bs),
                 bs.empty() ? 0.0 : *std::min_element(bs.begin(), bs.end()),
                 bs.empty() ? 0.0 : *std::max_element(bs.begin(), bs.end()),
                 1e6 * tracker->max_residual_v(), 1e6 * tracker->lsb_in_v());
  }

  if (!opts.trace) {
    report.set("setup_s", 1e-9 * static_cast<double>(setup_end - start_ns), "s");
    report.set("ops_per_s", est.ops_per_s, "ops/s");
    report.set("op_latency_p50_us", median(kept_latency_us), "us");
    report.set("wire_bytes_per_op", bytes_per_frame, "bytes");
    report.set("peak_rss_mib", rss, "MiB");
    return report;
  }

  // --- traced: per-layer metrics ----------------------------------------------
  LayerTimes lt;
  for (int g = warm; g < n_total; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    lt.spans.add("session.frame", stamps[gi], sink.arrival()[gi], g);
  }
  field.enable_stamps(nullptr, period);
  {
    biosense::set_max_threads(1);  // capture as the capture stage runs it
    NeuroChip layer_chip(cfg, Rng(kDieSeed));
    layer_chip.calibrate_all();
    run_layer_phase(layer_chip, field, sc, mix_seed(opts.seed, 4), 0.0, 48, lt);
    biosense::set_max_threads(spec.threads);
  }
  report.failed += lt.mismatches;
  const auto med = [&](const char* name) { return median(lt.spans.durations_us(name)); };
  report.set("neurochip.capture_us", med("neurochip.capture"), "us");
  report.set("core.wire_us", med("core.wire"), "us");
  report.set("core.encode_us", med("core.encode"), "us");
  report.set("dnachip.frame_bits_us", med("dnachip.frame_bits"), "us");
  report.set("dnachip.link_us", med("dnachip.link"), "us");
  report.set("dnachip.lenient_decode_us", med("dnachip.lenient_decode"), "us");
  report.set("dnachip.merge_us", med("dnachip.merge"), "us");
  report.set("core.decode_us", med("core.decode"), "us");
  report.set("wire.parts_over_whole", lt.sum_parts_us / lt.sum_whole_us, "ratio");
  report.set("wire.attempts_per_frame",
             static_cast<double>(total.wire.attempts) / total.frames, "count");
  const double retransmitted = static_cast<double>(total.wire.retries) *
                               static_cast<double>(cfg.rows * cfg.cols * 2 + 8);
  report.set("wire.retry_yield",
             retransmitted > 0.0 ? static_cast<double>(total.wire.recovered_words) / retransmitted
                                 : 0.0,
             "ratio");
  report.set("wire.bits_per_frame", static_cast<double>(total.wire.bits) / total.frames,
             "bits");
  report.set("core.capture_q.push_stalls",
             static_cast<double>(main_report.capture_queue.push_stalls), "count");
  report.set("core.capture_q.pop_stalls",
             static_cast<double>(main_report.capture_queue.pop_stalls), "count");
  report.set("core.pool.exhaustion_stalls",
             static_cast<double>(main_report.pool.exhaustion_stalls), "count");
  report.set("setup.chip_construct_s", 1e-9 * static_cast<double>(c1 - c0), "s");
  report.set("setup.calibrate_s", 1e-9 * static_cast<double>(c2 - c1), "s");
  std::fprintf(stderr, "[%s] wire parts/whole=%.3f over %d frames\n", spec.name,
               lt.sum_parts_us / lt.sum_whole_us, 48);
  const std::string path = opts.out_dir + "/trace_" + spec.name + ".json";
  if (!lt.spans.write_chrome_trace(path)) {
    std::fprintf(stderr, "[%s] could not write %s\n", spec.name, path.c_str());
  }
  return report;
}

}  // namespace

Report run_neuro_dense(const Options& opts, std::uint64_t start_ns) {
  NeuroSpec spec;
  spec.name = "neuro_dense";
  spec.threads = 1;
  spec.round_frames = 12;
  return run_neuro(spec, opts, start_ns);
}

Report run_neuro_sparse_lossy(const Options& opts, std::uint64_t start_ns) {
  NeuroSpec spec;
  spec.name = "neuro_sparse_lossy";
  spec.sparse = true;
  spec.threads = 2;
  spec.ber = 1e-4;
  spec.round_frames = 8;
  spec.warmup_rounds = 4;
  return run_neuro(spec, opts, start_ns);
}

}  // namespace perfbench
