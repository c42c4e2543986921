// fleet_mixed: FleetServer at protocol v4 with telemetry on, serving a few
// hundred small mixed sessions (8x8 neuro, 4x4 DNA with short gates). One
// client thread drives it in a closed loop over the in-process ServerLink.
//
// A round is one pass over every session slot; each slot runs one cycle
// whose kind depends on (round + slot) mod 16, so every round holds the
// same command mix:
//   every cycle   start(4), poll(2), poll(2), poll(64), query, ping, health
//   4 of 16       + checkpoint
//   1 of 16       + checkpoint, destroy, restore   (resume)
//   1 of 16       + drain, destroy, create, configure (churn)
// plus one chunked metrics scan per round from a monitor client.
//
// Every response is checked against a model of the session (pending,
// produced, polled, ring occupancy, record indices). After the timed loop
// a sample of slots is replayed alone on fresh servers: the response
// digest must match (isolation), and a twin that skips the resume steps
// must end every incarnation with the same drain digest (resume).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/parallel.hpp"
#include "host/client.hpp"
#include "host/fleet_server.hpp"
#include "host/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using biosense::host::ByteLink;
using biosense::host::FleetClient;
using biosense::host::FleetServer;
using biosense::host::HostCommand;
using biosense::host::HostStatus;
using biosense::host::ServerLink;

constexpr int kSlots = 256;          // concurrent sessions
constexpr int kPhases = 16;          // cycle kinds repeat every 16 rounds
constexpr int kCheckedSlots = 8;     // slots replayed alone after the run
constexpr std::uint32_t kStartFrames = 4;
constexpr std::size_t kTracedRounds = 4;  // timed rounds kept in the trace

biosense::host::FleetLimits fleet_limits() {
  biosense::host::FleetLimits limits;
  limits.flight_events = 16;  // telemetry on: per-session flight rings
  limits.server_flight_events = 1024;
  return limits;
}

std::uint32_t slot_id(int slot) { return static_cast<std::uint32_t>(slot + 1); }
bool slot_is_neuro(int slot) { return slot % 2 == 0; }
/// Every other DNA slot gets a 2-deep record ring, so its first poll of
/// each cycle answers with the backpressure flag.
std::uint16_t slot_ring(int slot) { return slot % 4 == 3 ? 2 : 32; }

// ---------------------------------------------------------------------------
// Transport: the in-process ServerLink, wrapped to count bytes and fold
// each response into the slot's digest. The traced variant also times the
// request-header decode and the server's handle() call.

struct Tally {
  std::uint64_t bytes = 0;
};

class TimedServerLink final : public ByteLink {
 public:
  TimedServerLink(FleetServer& server, SpanLog* spans)
      : server_(&server), spans_(spans) {}

  bool roundtrip(  // lint:allow-bool
      const std::vector<std::uint8_t>& request,
      std::vector<std::uint8_t>& response) override {
    if (!enabled_) {
      server_->handle(request.data(), request.size(), response);
      return true;
    }
    const std::uint64_t d0 = now_ns();
    const auto decoded = biosense::host::decode_frame(request.data(), request.size());
    const std::uint64_t d1 = now_ns();
    const char* name = "host.handle.other";
    if (decoded) name = handle_name(*decoded);
    const std::uint64_t h0 = now_ns();
    server_->handle(request.data(), request.size(), response);
    const std::uint64_t h1 = now_ns();
    spans_->add("host.decode_frame", d0, d1, op_, parent_);
    spans_->add(name, h0, h1, op_, parent_);
    return true;
  }

  /// Spans are recorded only while enabled (set-up and one timed epoch),
  /// which bounds the in-memory log.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// The op index and enclosing client span of the next transactions.
  void set_context(std::int64_t op, std::int32_t parent) {
    op_ = op;
    parent_ = parent;
  }

 private:
  static const char* handle_name(const biosense::host::DecodedFrame& f) {
    switch (f.header.command) {
      case HostCommand::kCreateSession: return "host.handle.create";
      case HostCommand::kConfigureSession: return "host.handle.configure";
      case HostCommand::kStartAcquisition: return "host.handle.start";
      case HostCommand::kPollFrames: {
        biosense::host::PayloadReader r(f.payload, f.payload_len);
        const std::uint32_t id = r.u32();
        return slot_is_neuro(static_cast<int>(id) - 1) ? "host.handle.poll_neuro"
                                                        : "host.handle.poll_dna";
      }
      case HostCommand::kQuerySession: return "host.handle.query";
      case HostCommand::kPing: return "host.handle.ping";
      case HostCommand::kGetSessionHealth: return "host.handle.health";
      case HostCommand::kGetMetrics: return "host.handle.metrics";
      case HostCommand::kCheckpointSession: return "host.handle.checkpoint";
      case HostCommand::kRestoreSession: return "host.handle.restore";
      case HostCommand::kDrainSession: return "host.handle.drain";
      case HostCommand::kDestroySession: return "host.handle.destroy";
      default: return "host.handle.other";
    }
  }

  FleetServer* server_;
  SpanLog* spans_;
  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::int32_t parent_ = -1;
};

/// Per-client link: byte tally plus a digest over every response frame
/// (header without the CRC byte, and payload). The checkpoint response's
/// snapshot digest is left out: the snapshot holds flight-recorder events
/// stamped with wall-clock time, so it differs between identical sessions.
class DigestLink final : public ByteLink {
 public:
  DigestLink(ByteLink& inner, Tally& tally) : inner_(&inner), tally_(&tally) {}

  bool roundtrip(  // lint:allow-bool
      const std::vector<std::uint8_t>& request,
      std::vector<std::uint8_t>& response) override {
    const bool ok = inner_->roundtrip(request, response);
    tally_->bytes += request.size() + response.size();
    const std::size_t header = biosense::host::kHeaderSize;
    if (response.size() < header) return ok;
    digest_ = fnv(digest_, response.data(), header - 1);
    std::uint16_t command = 0;
    std::memcpy(&command, response.data() + 2, sizeof(command));
    if (command == static_cast<std::uint16_t>(HostCommand::kCheckpointSession) &&
        response.size() >= header + 12) {
      digest_ = fnv(digest_, response.data() + header, 4);  // snapshot size
      digest_ = fnv(digest_, response.data() + header + 12, response.size() - header - 12);
    } else {
      digest_ = fnv(digest_, response.data() + header, response.size() - header);
    }
    return ok;
  }

  std::uint64_t digest() const { return digest_; }

 private:
  ByteLink* inner_;
  Tally* tally_;
  std::uint64_t digest_ = kFnvOffset;
};

// ---------------------------------------------------------------------------
// One session slot: its client, the model of its server-side state, and
// what the checks compare.

struct DrainResult {
  std::uint32_t frames = 0;
  std::uint64_t digest = 0;
  bool operator==(const DrainResult&) const = default;
};

struct Slot {
  int index = 0;
  std::unique_ptr<DigestLink> link;
  std::unique_ptr<FleetClient> client;
  int generation = 0;
  // Model of the live incarnation.
  std::uint32_t pending = 0;
  std::uint32_t produced = 0;
  std::uint64_t polled = 0;
  std::uint32_t ring = 0;
  std::uint32_t next_index = 0;
  std::uint64_t record_fold = kFnvOffset;
  std::vector<DrainResult> drains;
};

struct Counters {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t polls = 0;
  std::uint64_t records = 0;
  std::uint64_t backpressure_polls = 0;
  std::vector<double> checkpoint_bytes;
};

/// Runs the slots' command scripts, with the benchmark's own timing and
/// tracing around each client call.
class Script {
 public:
  Script(std::uint64_t seed, Inject inject, bool timed_latency,
         TimedServerLink* traced, SpanLog* spans)
      : seed_(seed), inject_(inject), timed_(timed_latency), traced_(traced),
        spans_(spans) {}

  Counters counters;
  std::vector<float> latency_us;  // per op, in call order (timed loop only)

  FleetClient::SessionSpec spec(const Slot& s) const {
    FleetClient::SessionSpec spec;
    spec.id = slot_id(s.index);
    spec.kind = slot_is_neuro(s.index) ? biosense::core::ChipKind::kNeuro
                                       : biosense::core::ChipKind::kDna;
    spec.rows = slot_is_neuro(s.index) ? 8 : 4;
    spec.cols = spec.rows;
    spec.seed = mix_seed(seed_, 1000 + static_cast<std::uint64_t>(s.index) * 4096 +
                                    static_cast<std::uint64_t>(s.generation));
    spec.pool_frames = 2;
    spec.ring_depth = slot_ring(s.index);
    return spec;
  }

  /// Create + configure a fresh incarnation of the slot.
  void open(Slot& s) {
    const auto sp = spec(s);
    expect(call("host.client.create", [&] { return bool(s.client->create(sp)); }));
    const std::uint64_t knob = slot_is_neuro(s.index)
                                   ? 200 + sp.seed % 800     // probe amplitude, uV
                                   : sp.seed % 4;            // gate code 0-3: 1-8 ms
    expect(call("host.client.configure", [&] {
      return bool(s.client->configure(sp.id, slot_is_neuro(s.index) ? 1 : 0, knob));
    }));
    s.pending = s.produced = s.ring = s.next_index = 0;
    s.polled = 0;
  }

  /// One cycle of `round` for the slot. `resume` = false skips the
  /// checkpoint/destroy/restore steps (the uninterrupted twin).
  void cycle(Slot& s, int round, bool resume) {
    const std::uint32_t id = slot_id(s.index);
    const int phase = (round + s.index) % kPhases;
    FleetClient& c = *s.client;

    expect(call("host.client.start", [&] {
      const auto r = c.start(id, kStartFrames);
      s.pending += kStartFrames;
      return r && *r == s.pending;
    }));
    poll(s, 2, round);
    poll(s, 2, round);
    poll(s, 64, round);
    expect(call("host.client.query", [&] {
      const auto r = c.query(id);
      return r && r->pending == s.pending && r->frames_produced == s.produced &&
             r->records_polled == s.polled;
    }));
    expect(call("host.client.ping", [&] {
      std::uint8_t probe[8];
      const std::uint64_t tag = id ^ (static_cast<std::uint64_t>(round) << 32);
      std::memcpy(probe, &tag, sizeof(probe));
      return bool(c.ping(probe, sizeof(probe)));
    }));
    expect(call("host.client.health", [&] {
      const auto r = c.session_health(id);
      return r && r->pending == s.pending && r->frames_produced == s.produced &&
             r->records_polled == s.polled;
    }));
    if (phase % 4 == 1) checkpoint(s);
    if (phase == 6 && resume) {
      checkpoint(s);
      expect(call("host.client.destroy", [&] { return bool(c.destroy(id)); }));
      expect(call("host.client.restore", [&] {
        const auto r = c.restore(id);
        return r && r->frames_produced == s.produced;
      }));
    }
    if (phase == 11) {
      drain(s);
      expect(call("host.client.destroy", [&] { return bool(c.destroy(id)); }));
      ++s.generation;
      open(s);
    }
  }

  void drain(Slot& s) {
    expect(call("host.client.drain", [&] {
      const auto r = s.client->drain(slot_id(s.index));
      if (!r) return false;
      s.produced += s.pending;
      s.pending = 0;
      s.ring = 0;
      s.drains.push_back(DrainResult{r->frames, r->digest});
      return r->frames == s.produced;
    }));
  }

  /// Monitor scan of the server's metrics registry.
  void metrics(FleetClient& monitor) {
    expect(call("host.client.metrics", [&] { return bool(monitor.metrics()); }));
  }

  void set_drop_record(int slot, int round) {
    drop_slot_ = slot;
    drop_round_ = round;
  }

 private:
  template <typename Fn>
  bool call(const char* span_name, Fn&& fn) {
    ++counters.ops;
    const auto op = static_cast<std::int64_t>(counters.ops);
    const bool traced = traced_ != nullptr && traced_->enabled();
    const std::uint64_t t0 = now_ns();
    std::int32_t top = -1;
    if (traced) {
      top = spans_->add(span_name, t0, t0, op);
      traced_->set_context(op, top);
    }
    const bool ok = fn();
    const std::uint64_t t1 = now_ns();
    if (traced) spans_->close(top, t1);
    if (timed_) latency_us.push_back(static_cast<float>(1e-3 * static_cast<double>(t1 - t0)));
    return ok;
  }

  void expect(bool ok) {
    if (!ok) ++counters.failed;
  }

  void poll(Slot& s, std::uint16_t max_records, int round) {
    expect(call("host.client.poll", [&] {
      records_.clear();
      const auto r = s.client->poll(slot_id(s.index), max_records, records_);
      if (!r) return false;
      if (inject_ == Inject::kDropRecord && s.index == drop_slot_ && round == drop_round_ &&
          !records_.empty()) {
        records_.pop_back();  // one record lost between server and check
        drop_round_ = -1;
      }
      // Model: the server tops the ring up from the backlog, then serves.
      const std::uint32_t room = slot_ring(s.index) - s.ring;
      const std::uint32_t made = std::min(s.pending, room);
      s.pending -= made;
      s.produced += made;
      s.ring += made;
      const std::uint32_t served = std::min<std::uint32_t>(s.ring, max_records);
      s.ring -= served;
      s.polled += served;
      const bool bp_expected = s.pending > 0;
      ++counters.polls;
      counters.records += records_.size();
      if (r->backpressure) ++counters.backpressure_polls;
      bool ok = r->returned == served && records_.size() == served &&
                r->backpressure == bp_expected;
      for (const auto& rec : records_) {
        ok = ok && rec.index == s.next_index;
        s.next_index = rec.index + 1;
        s.record_fold = fnv(s.record_fold, &rec.payload, sizeof(rec.payload));
      }
      return ok;
    }));
  }

  void checkpoint(Slot& s) {
    expect(call("host.client.checkpoint", [&] {
      const auto r = s.client->checkpoint(slot_id(s.index));
      if (!r) return false;
      counters.checkpoint_bytes.push_back(static_cast<double>(r->size));
      return r->size > 0;
    }));
  }

  std::uint64_t seed_;
  Inject inject_;
  bool timed_;
  TimedServerLink* traced_;
  SpanLog* spans_;
  std::vector<FleetClient::Record> records_;
  int drop_slot_ = -1;
  int drop_round_ = -1;
};

struct Replay {
  std::uint64_t digest = 0;
  std::uint64_t record_fold = 0;
  std::vector<DrainResult> drains;
};

Slot make_slot(int index, ByteLink& inner, Tally& tally) {
  Slot s;
  s.index = index;
  s.link = std::make_unique<DigestLink>(inner, tally);
  s.client = std::make_unique<FleetClient>(*s.link);
  return s;
}

/// Replays one slot's script alone on a fresh server: `rounds` cycles,
/// then a final drain.
Replay replay_alone(int index, int rounds, std::uint64_t seed, bool resume,
                    std::uint64_t& failed) {
  FleetServer server(fleet_limits());
  ServerLink link(server);
  Tally tally;
  Slot s = make_slot(index, link, tally);
  Script d(seed, Inject::kNone, false, nullptr, nullptr);
  d.open(s);
  for (int r = 0; r < rounds; ++r) d.cycle(s, r, resume);
  d.drain(s);
  failed += d.counters.failed;
  return Replay{s.link->digest(), s.record_fold, s.drains};
}

}  // namespace

Report run_fleet_mixed(const Options& opts, std::uint64_t start_ns) {
  Report report;
  biosense::set_max_threads(1);  // captures inline on the client thread

  // --- set-up: server and every session created and configured ------------
  FleetServer server(fleet_limits());
  ServerLink server_link(server);
  SpanLog spans(opts.trace ? (1u << 18) : 0);
  TimedServerLink timed_link(server, &spans);
  timed_link.enable(opts.trace);
  ByteLink& inner = opts.trace ? static_cast<ByteLink&>(timed_link)
                               : static_cast<ByteLink&>(server_link);
  Tally tally;
  Script script(opts.seed, opts.inject, true, opts.trace ? &timed_link : nullptr, &spans);
  std::vector<Slot> slots;
  slots.reserve(kSlots);
  // Set-up rounds of equal work: one neuro and one DNA slot each.
  std::vector<double> create_us;
  std::vector<double> setup_round_s;
  const std::uint64_t open_begin = now_ns();
  for (int i = 0; i < kSlots; i += 2) {
    const std::uint64_t r0 = now_ns();
    for (int j = i; j < i + 2; ++j) {
      slots.push_back(make_slot(j, inner, tally));
      const std::uint64_t t0 = now_ns();
      script.open(slots.back());
      create_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
    }
    setup_round_s.push_back(1e-9 * static_cast<double>(now_ns() - r0));
  }
  const std::uint64_t open_end = now_ns();
  Slot monitor = make_slot(-1, inner, tally);
  const std::uint64_t setup_end = now_ns();
  // setup_s: the parts outside the rounds as measured, the rounds through
  // the estimator.
  const double setup_s =
      1e-9 * static_cast<double>((open_begin - start_ns) + (setup_end - open_end)) +
      static_cast<double>(setup_round_s.size()) / estimate_rounds(setup_round_s, 1.0).ops_per_s;
  std::fprintf(stderr, "[fleet_mixed] setup_s=%.4f (whole set-up %.4f s)\n", setup_s,
               1e-9 * static_cast<double>(setup_end - start_ns));

  // --- warm-up epoch, then timed epochs until the time is up ---------------
  int round = 0;
  if (opts.inject == Inject::kDropRecord) script.set_drop_record(3, 2);
  timed_link.enable(false);
  for (; round < kPhases; ++round) {
    for (auto& s : slots) script.cycle(s, round, true);
    script.metrics(*monitor.client);
  }
  script.latency_us.clear();
  timed_link.enable(opts.trace);
  const std::uint64_t ops_before = script.counters.ops;
  const std::uint64_t bytes_before = tally.bytes;
  const std::uint64_t polls_before = script.counters.polls;
  const std::uint64_t records_before = script.counters.records;
  const std::uint64_t bp_before = script.counters.backpressure_polls;
  std::vector<double> round_s;
  std::vector<std::size_t> round_first_op;  // index into latency_us
  std::vector<std::uint64_t> round_ops;
  const std::uint64_t t_begin = now_ns();
  const double budget_s = std::max(1.0, opts.seconds - 1e-9 * static_cast<double>(t_begin - setup_end));
  for (;;) {
    for (int e = 0; e < kPhases; ++e, ++round) {
      const std::uint64_t ops0 = script.counters.ops;
      round_first_op.push_back(script.latency_us.size());
      const std::uint64_t r0 = now_ns();
      for (auto& s : slots) script.cycle(s, round, true);
      script.metrics(*monitor.client);
      round_s.push_back(1e-9 * static_cast<double>(now_ns() - r0));
      round_ops.push_back(script.counters.ops - ops0);
      // Traced runs keep spans of set-up, warm-up and the first timed
      // rounds only: every round holds the same mix.
      if (round_s.size() == kTracedRounds) timed_link.enable(false);
    }
    if (1e-9 * static_cast<double>(now_ns() - t_begin) >= budget_s) break;
  }
  const double rss = peak_rss_mib();
  const std::uint64_t timed_ops = script.counters.ops - ops_before;
  const double bytes_per_op =
      static_cast<double>(tally.bytes - bytes_before) /
      static_cast<double>(timed_ops);
  const double ops_per_round = static_cast<double>(round_ops.front());
  bool equal_rounds = true;
  for (auto n : round_ops) equal_rounds = equal_rounds && n == round_ops.front();
  if (!equal_rounds) report.correct = false;

  const RoundEstimate est = estimate_rounds(round_s, ops_per_round);
  std::vector<double> kept_latency;
  for (std::size_t j : est.kept) {
    const std::size_t a = round_first_op[j];
    const std::size_t b = a + round_ops[j];
    for (std::size_t i = a; i < b; ++i) kept_latency.push_back(script.latency_us[i]);
  }
  std::vector<double> all_latency(script.latency_us.begin(), script.latency_us.end());

  // --- checks: isolation and resume on a sample of slots -----------------
  timed_link.enable(false);
  std::vector<int> checked;
  {
    biosense::Rng pick(mix_seed(opts.seed, 77));
    while (static_cast<int>(checked.size()) < kCheckedSlots) {
      const int i = static_cast<int>(pick.uniform_int(0, kSlots - 1));
      if (std::find(checked.begin(), checked.end(), i) == checked.end()) checked.push_back(i);
    }
  }
  std::uint64_t check_failed = 0;
  std::vector<std::uint64_t> fleet_digest, alone_digest;
  for (int i : checked) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    script.drain(s);
    fleet_digest.push_back(s.link->digest());
    const Replay alone = replay_alone(i, round, opts.seed, true, check_failed);
    alone_digest.push_back(alone.digest);
    const Replay twin = replay_alone(i, round, opts.seed, false, check_failed);
    // Resume: every incarnation ends with the uninterrupted twin's drain,
    // and the polled records are the same.
    if (s.drains != twin.drains || s.record_fold != twin.record_fold) ++check_failed;
  }
  if (opts.inject == Inject::kSwapDigests) std::swap(fleet_digest[0], fleet_digest[1]);
  for (std::size_t k = 0; k < fleet_digest.size(); ++k) {
    if (fleet_digest[k] != alone_digest[k]) ++check_failed;
  }

  report.attempted = script.counters.ops;
  report.failed = script.counters.failed + check_failed;

  std::fprintf(stderr,
               "[fleet_mixed] rounds=%zu ops/round=%.0f kept=%zu est=%.0f ops/s "
               "whole=%.0f ops/s p50=%.2f us p99(all)=%.2f us bytes/op=%.3f "
               "failed=%llu (checks %llu)\n",
               round_s.size(), ops_per_round, est.kept.size(), est.ops_per_s,
               est.whole_run_ops_per_s, median(kept_latency), quantile(all_latency, 0.99),
               bytes_per_op, static_cast<unsigned long long>(report.failed),
               static_cast<unsigned long long>(check_failed));
  std::fprintf(stderr, "ROUNDS fleet_mixed");
  for (double r : round_s) std::fprintf(stderr, " %.6f", r);
  std::fprintf(stderr, "\n");

  if (!opts.trace) {
    report.set("setup_s", setup_s, "s");
    report.set("ops_per_s", est.ops_per_s, "ops/s");
    report.set("op_latency_p50_us", median(kept_latency), "us");
    report.set("wire_bytes_per_op", bytes_per_op, "bytes");
    report.set("peak_rss_mib", rss, "MiB");
    return report;
  }

  // --- traced: per-layer metrics --------------------------------------------
  // Mean time per call: a command kind's share of the round is its mean
  // times its count, which is what moves ops_per_s.
  const auto mean = [&](const char* name) {
    const auto d = spans.durations_us(name);
    double sum = 0.0;
    for (double x : d) sum += x;
    return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
  };
  const auto med = [&](const char* name) { return median(spans.durations_us(name)); };
  static const std::vector<std::pair<const char*, const char*>> kHandles = {
      {"host.handle_us.create", "host.handle.create"},
      {"host.handle_us.configure", "host.handle.configure"},
      {"host.handle_us.start", "host.handle.start"},
      {"host.handle_us.poll_neuro", "host.handle.poll_neuro"},
      {"host.handle_us.poll_dna", "host.handle.poll_dna"},
      {"host.handle_us.query", "host.handle.query"},
      {"host.handle_us.ping", "host.handle.ping"},
      {"host.handle_us.health", "host.handle.health"},
      {"host.handle_us.metrics", "host.handle.metrics"},
      {"host.handle_us.checkpoint", "host.handle.checkpoint"},
      {"host.handle_us.restore", "host.handle.restore"},
      {"host.handle_us.drain", "host.handle.drain"},
      {"host.handle_us.destroy", "host.handle.destroy"},
  };
  for (const auto& [metric, span] : kHandles) report.set(metric, mean(span), "us");
  report.set("host.decode_frame_us", med("host.decode_frame"), "us");
  // Client time: each client span minus the transport spans inside it.
  {
    const auto& all = spans.spans();
    std::vector<double> inner_ns(all.size(), 0.0);
    for (const auto& sp : all) {
      if (sp.parent >= 0) {
        inner_ns[static_cast<std::size_t>(sp.parent)] +=
            static_cast<double>(sp.end_ns - sp.begin_ns);
      }
    }
    std::vector<double> client_us;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].parent < 0) {
        client_us.push_back(1e-3 * (static_cast<double>(all[i].end_ns - all[i].begin_ns) -
                                    inner_ns[i]));
      }
    }
    report.set("host.client_us", median(client_us), "us");
  }
  const double timed_polls = static_cast<double>(script.counters.polls - polls_before);
  report.set("host.records_per_poll",
             static_cast<double>(script.counters.records - records_before) / timed_polls,
             "count");
  report.set("host.backpressure_polls",
             static_cast<double>(script.counters.backpressure_polls - bp_before) /
                 static_cast<double>(round_s.size()),
             "count");
  report.set("snapshot.checkpoint_bytes", median(script.counters.checkpoint_bytes), "bytes");
  report.set("setup.session_create_us", median(create_us), "us");
  {
    // Tracing overhead: traced rounds against the untraced rest of the run.
    std::vector<double> traced(round_s.begin(), round_s.begin() + kTracedRounds);
    std::vector<double> rest(round_s.begin() + kTracedRounds, round_s.end());
    std::fprintf(stderr, "[fleet_mixed] traced rounds %.4f s vs untraced median %.4f s\n",
                 median(traced), median(rest));
  }
  const std::string path = opts.out_dir + "/trace_fleet_mixed.json";
  if (!spans.write_chrome_trace(path)) {
    std::fprintf(stderr, "[fleet_mixed] could not write %s\n", path.c_str());
  }
  return report;
}

}  // namespace perfbench
