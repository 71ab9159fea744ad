// ag_suite: the repository benchmark.  One process runs one workload
// (README.md gives the reason for each):
//
//   complete-100k     ShardedUniformAG<BitRankTracker, BitRankStore>, shards = 1,
//                     EXCHANGE on the implicit complete graph, n = 100k, k = 32
//   barbell-128       the same engine on the implicit barbell, n = 128, k = 32
//   stream-gf256      StreamingSwarm<Gf256Decoder>, 1 KiB payloads
//
// Every run is a batch job: one dissemination to completion, then the next.
// Run r of seed s draws its inputs from (s, r) only.  One untimed warm-up run
// precedes the timed runs, which repeat until the next would overrun
// --seconds.
//
//   --trace 0  end-to-end metrics of the untraced runs;
//   --trace 1  per-layer metrics: each timed run of the real engine is
//              followed by a bench-side replay of the same run that calls the
//              same public functions phase by phase and records where the
//              time goes (sample / combine / transport / insert / barrier).
//
// ag_suite calls only public functions of sim, core, linalg, gf, coding and
// net (the wire codec, as a micro-kernel) and times them from outside.  The
// last stdout line is one JSON object.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "coding/scheduler.hpp"
#include "coding/streaming_swarm.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/sharded_round.hpp"
#include "core/swarm.hpp"
#include "core/swarm_storage.hpp"
#include "gf/backend/backend.hpp"
#include "gf/bulk_ops.hpp"
#include "linalg/rank_tracker.hpp"
#include "net/wire.hpp"
#include "sim/partner.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"

#ifndef AG_SUITE_BUILD_TYPE
#define AG_SUITE_BUILD_TYPE "unknown"
#endif
#ifndef AG_SUITE_COMPILER
#define AG_SUITE_COMPILER "unknown"
#endif
#ifndef AG_SUITE_CXX_FLAGS
#define AG_SUITE_CXX_FLAGS ""
#endif

namespace {

using namespace ag;
using Clock = std::chrono::steady_clock;
using graph::NodeId;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Peak RSS of this process image.  VmHWM, not getrusage's ru_maxrss: Linux
// carries ru_maxrss across execve, so under run.py it would report the
// Python parent's footprint whenever that is the larger.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// CPUs this process may run on (its affinity mask), at least 1.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Defeats dead-code elimination of the micro-kernel loops.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 1815;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ag_suite: %s\n"
               "usage: ag_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                [--trace-out FILE] [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Result: metrics plus the run ledger (every run is one attempt; a run fails
// when any correctness check on it fails).
// ---------------------------------------------------------------------------
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit, std::size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  // Median of per-run (or per-round) samples.
  void median_of(const std::string& name, const std::vector<double>& s, const char* unit) {
    metric(name, median(s), unit, s.size());
  }
  // Printed for diagnosis; not part of the benchmark's metric set.
  void note(const std::string& name, double value, const char* unit) {
    notes_.push_back({name, value, unit, 1});
  }
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      std::fprintf(stderr, "ag_suite: FAILED: %s\n", what.c_str());
    }
  }
  bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }

  void print_json(const std::string& workload, const std::string& provenance) const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Provenance: what was measured, on what.  run.py refuses results from
// unoptimised or instrumented builds.
// ---------------------------------------------------------------------------
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::strstr(AG_SUITE_CXX_FLAGS, "-fsanitize") != nullptr;
}

std::string provenance_json(const Args& a) {
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  auto cache_kib = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? static_cast<double>(v) / 1024.0 : 0.0;
  };
  std::string s = "{";
  s += "\"build_type\": " + json_string(AG_SUITE_BUILD_TYPE);
  s += ", \"compiler\": " + json_string(AG_SUITE_COMPILER);
  s += ", \"cxx_flags\": " + json_string(AG_SUITE_CXX_FLAGS);
  s += std::string(", \"asserts\": ") + (asserts ? "true" : "false");
  s += std::string(", \"sanitized\": ") + (sanitized_build() ? "true" : "false");
  s += ", \"gf_backend\": " + json_string(gf::backend::active().name);
  s += ", \"nproc\": " + std::to_string(usable_cpus());
  s += ", \"cpu_model\": " + json_string(cpu_model());
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  s += ", \"l1d_kib\": " + json_number(cache_kib(_SC_LEVEL1_DCACHE_SIZE));
  s += ", \"l2_kib\": " + json_number(cache_kib(_SC_LEVEL2_CACHE_SIZE));
  s += ", \"l3_kib\": " + json_number(cache_kib(_SC_LEVEL3_CACHE_SIZE));
#endif
  s += std::string(", \"smoke\": ") + (a.smoke ? "true" : "false");
  return s + "}";
}

void Report::print_json(const std::string& workload, const std::string& provenance) const {
  auto list = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i) s += ", ";
      s += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) +
           ", \"samples\": " + std::to_string(ms[i].samples) + "}";
    }
    return s + "}";
  };
  std::string failures = "[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i) failures += ", ";
    failures += json_string(failures_[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": %s, \"metrics\": %s, \"notes\": %s, \"provenance\": %s}\n",
      json_string(workload).c_str(), correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_), static_cast<unsigned long long>(failed_),
      failures.c_str(), list(metrics_).c_str(), list(notes_).c_str(), provenance.c_str());
}

// Runs one(i) for i = 0, 1, ... until the next run, predicted to last as long
// as the previous one, would end past `seconds`; at least `min_runs` times.
template <typename F>
void timed_runs(double seconds, std::size_t min_runs, F&& one) {
  const auto t0 = Clock::now();
  double last = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (i >= min_runs && seconds_since(t0) + last > seconds) return;
    const auto r0 = Clock::now();
    one(i);
    last = seconds_since(r0);
  }
}

constexpr std::size_t kMinTimedRuns = 3;
constexpr std::uint64_t kPlacementSalt = 0x5eedface0ddba11ull;

// Set-ups timed before the warm-up, on top of one per run, so that setup_s is
// the median of many (one set-up is a few ms at most).  The first set-ups of
// a process are untimed: the first two of complete-100k fault in 37 MiB
// (~20 ms each), and the next ten or so fall from ~6 ms to a steady ~2.3 ms.
constexpr std::size_t kSetupWarmups = 16;
constexpr std::size_t kSetupReps = 24;

// Builds make(i) for i < kSetupWarmups + kSetupReps and times the last
// kSetupReps; each object is destroyed untimed.
template <typename F>
void time_setups(std::vector<double>& out, F&& make) {
  for (std::size_t i = 0; i < kSetupWarmups + kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const auto obj = make(i);
    if (i >= kSetupWarmups) out.push_back(seconds_since(t0));
  }
}

// End-to-end samples of one workload's untraced runs.  Only per-run
// summaries are kept, so the benchmark's own memory does not grow with the
// number of runs and peak_rss_mib measures the library.
struct EndToEnd {
  std::vector<double> setup, wall, rounds, packets_per_s;
  std::vector<double> round_p50, round_p90;  // each run's per-round quantiles, ms

  // `round_ms` holds the run's per-round times.
  void add_run(double setup_s, double wall_s, std::uint64_t rounds_done,
               std::uint64_t packets, const std::vector<double>& round_ms) {
    setup.push_back(setup_s);
    wall.push_back(wall_s);
    rounds.push_back(static_cast<double>(rounds_done));
    packets_per_s.push_back(static_cast<double>(packets) / wall_s);
    round_p50.push_back(quantile(round_ms, 0.50));
    round_p90.push_back(quantile(round_ms, 0.90));
  }

  void report(Report& rep) const {
    rep.median_of("setup_s", setup, "s");
    rep.median_of("time_to_full_rank_s", wall, "s");
    rep.median_of("packets_per_s", packets_per_s, "1/s");
    rep.median_of("stop_rounds_p50", rounds, "rounds");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.note("round_ms_p50", median(round_p50), "ms");
    rep.note("round_ms_p90", median(round_p90), "ms");
  }
};

// ---------------------------------------------------------------------------
// Tracing: per-phase time of each round, attributed with a lap clock (the
// time since the previous mark goes to the phase being marked), kept in
// memory and written out at exit.
// ---------------------------------------------------------------------------
enum Phase : std::size_t { kSample, kCombine, kTransport, kInsert, kBarrier, kPhaseCount };
constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "sim.sample", "core.combine", "sim.transport", "linalg.insert", "core.barrier"};

class Tracer {
 public:
  struct Round {
    std::uint32_t run = 0;
    std::uint64_t round = 0;
    double start = 0, end = 0;  // seconds since the process origin
    std::array<double, kPhaseCount> seconds{};
    std::array<std::uint64_t, kPhaseCount> calls{};
  };
  struct RunTotals {
    double wall = 0;  // first round start to last round end
    std::array<double, kPhaseCount> seconds{};
    std::array<std::uint64_t, kPhaseCount> calls{};
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin_round(std::uint32_t run, std::uint64_t round) {
    last_ = Clock::now();
    rounds_.push_back({run, round, seconds_between(origin_, last_), 0, {}, {}});
  }
  void mark(Phase p, std::uint64_t calls = 0) {
    const auto t = Clock::now();
    Round& r = rounds_.back();
    r.seconds[p] += seconds_between(last_, t);
    r.calls[p] += calls;
    last_ = t;
  }
  // Moves time already marked on `parent` to its child phase: a child span
  // measured inside the parent's interval (parent self time = span - child).
  void reattribute(Phase parent, Phase child, double s, std::uint64_t calls) {
    Round& r = rounds_.back();
    r.seconds[parent] -= s;
    r.seconds[child] += s;
    r.calls[child] += calls;
  }
  void end_round() { rounds_.back().end = seconds_between(origin_, last_); }

  RunTotals totals(std::uint32_t run) const {
    RunTotals t;
    double first = -1, last = 0;
    for (const Round& r : rounds_) {
      if (r.run != run) continue;
      if (first < 0) first = r.start;
      last = r.end;
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        t.seconds[p] += r.seconds[p];
        t.calls[p] += r.calls[p];
      }
    }
    t.wall = first < 0 ? 0 : last - first;
    return t;
  }

  // One JSON object per line: a round span (parent: its run) with its phase
  // children as {name: [self seconds, calls]}.
  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Round& r : rounds_) {
      std::fprintf(f, "{\"workload\": %s, \"run\": %u, \"round\": %llu, \"start\": %.9f, "
                      "\"end\": %.9f, \"phases\": {",
                   json_string(workload).c_str(), r.run,
                   static_cast<unsigned long long>(r.round), r.start, r.end);
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        std::fprintf(f, "%s\"%s\": [%.9f, %llu]", p ? ", " : "", kPhaseNames[p], r.seconds[p],
                     static_cast<unsigned long long>(r.calls[p]));
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  Clock::time_point last_;
  std::vector<Round> rounds_;
};

// Per-layer results of the traced runs, one entry per replayed run.
struct LayerSamples {
  std::array<std::vector<double>, kPhaseCount> seconds;
  std::vector<double> sample_ns, combine_ns, insert_ns;
  std::vector<double> sum_err, traced_wall, untraced_wall;
  std::vector<double> packets, helpful_ratio, finish_p50, finish_p99;
  bool identical = true;

  void add_run(const Tracer::RunTotals& t) {
    double sum = 0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      seconds[p].push_back(t.seconds[p]);
      sum += t.seconds[p];
    }
    auto per_call = [&](Phase p) {
      return t.calls[p] ? 1e9 * t.seconds[p] / static_cast<double>(t.calls[p]) : 0.0;
    };
    sample_ns.push_back(per_call(kSample));
    combine_ns.push_back(per_call(kCombine));
    insert_ns.push_back(per_call(kInsert));
    traced_wall.push_back(t.wall);
    sum_err.push_back(t.wall > 0 ? std::abs(sum - t.wall) / t.wall : 1.0);
  }
};

// ---------------------------------------------------------------------------
// Layer micro-kernels, timed in a loop on the workload's shapes.
// ---------------------------------------------------------------------------
constexpr double kMicroSeconds = 0.05;
constexpr std::uint64_t kMicroRun = 1u << 20;  // run index of the micro-kernel inputs

// GF(256) axpy on `row`-byte rows (the payload arithmetic of every coded
// packet), in GB/s of destination bytes.
double axpy_gbps(std::size_t row, sim::Rng& rng) {
  constexpr std::size_t kRows = 64;
  std::vector<std::uint8_t> dst(kRows * row), src(kRows * row);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng());
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::uint64_t bytes = 0;
  const auto t0 = Clock::now();
  double el = 0;
  do {
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::span<std::uint8_t> d(dst.data() + r * row, row);
      const std::span<const std::uint8_t> s(src.data() + ((r + 1) % kRows) * row, row);
      gf::axpy_gf256(d, s, static_cast<std::uint8_t>(2 + r));
    }
    bytes += kRows * row;
    el = seconds_since(t0);
  } while (el < kMicroSeconds);
  g_sink = g_sink + dst[rng.uniform(dst.size())];
  return static_cast<double>(bytes) / el / 1e9;
}

// Wire encode / decode of one frame of the workload's packet shape, ns each.
template <typename P>
std::pair<double, double> codec_ns(const P& pkt, std::size_t k) {
  std::vector<std::uint8_t> frame;
  std::uint64_t bytes = 0, calls = 0;
  auto t0 = Clock::now();
  double el = 0;
  do {
    for (int i = 0; i < 64; ++i) bytes += net::encode_into(pkt, k, frame);
    calls += 64;
    el = seconds_since(t0);
  } while (el < kMicroSeconds);
  const double enc = 1e9 * el / static_cast<double>(calls);
  P out;
  std::uint64_t ok = bytes;
  calls = 0;
  t0 = Clock::now();
  do {
    for (int i = 0; i < 64; ++i) {
      ok += net::decode_into(frame, k, pkt.payload.size(), out) == net::DecodeStatus::Ok;
    }
    calls += 64;
    el = seconds_since(t0);
  } while (el < kMicroSeconds);
  g_sink = g_sink + ok + out.coeffs.size();
  return {enc, 1e9 * el / static_cast<double>(calls)};
}

// Reports the per-layer metric set (identical names for every workload).
template <typename P>
void report_layers(Report& rep, const LayerSamples& ls, const P& frame, std::size_t k,
                   sim::Rng& rng) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    rep.median_of(std::string(kPhaseNames[p]) + "_s", ls.seconds[p], "s");
  }
  rep.median_of("sim.sample_ns", ls.sample_ns, "ns");
  rep.median_of("core.combine_ns", ls.combine_ns, "ns");
  rep.median_of("linalg.insert_ns", ls.insert_ns, "ns");
  rep.median_of("trace.phase_sum_err", ls.sum_err, "ratio");
  rep.metric("trace.overhead", median(ls.traced_wall) / median(ls.untraced_wall) - 1.0,
             "ratio", ls.traced_wall.size());
  rep.metric("trace.replay_identical", ls.identical ? 1.0 : 0.0, "bool",
             ls.traced_wall.size());
  rep.median_of("core.packets", ls.packets, "count");
  rep.median_of("linalg.helpful_ratio", ls.helpful_ratio, "ratio");
  rep.median_of("core.finish_rounds_p50", ls.finish_p50, "rounds");
  rep.median_of("core.finish_rounds_p99", ls.finish_p99, "rounds");
  rep.metric("gf.axpy_gbps", axpy_gbps(1024, rng), "GB/s", 1);
  const auto [enc, dec] = codec_ns(frame, k);
  rep.metric("net.encode_ns", enc, "ns", 1);
  rep.metric("net.decode_ns", dec, "ns", 1);
}

// p50 / p99 of a histogram hist[r] = count of events that took r rounds.
std::pair<double, double> hist_quantiles(const std::vector<std::uint64_t>& hist) {
  std::uint64_t total = 0;
  for (const auto c : hist) total += c;
  auto at = [&](double q) {
    const double target = q * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (std::size_t r = 0; r < hist.size(); ++r) {
      cum += hist[r];
      if (static_cast<double>(cum) >= target) return static_cast<double>(r);
    }
    return static_cast<double>(hist.size());
  };
  return {at(0.50), at(0.99)};
}

// ===========================================================================
// Engine workloads: ShardedUniformAG over rank-only GF(2) pools.
// ===========================================================================
using Tracker = linalg::BitRankTracker;
using Store = core::BitRankStore;
using Engine = core::ShardedUniformAG<Tracker, Store>;
using EngineSwarm = core::RlncSwarm<Tracker, Store>;

struct EngineSpec {
  bool barbell = false;
  std::size_t n = 0, k = 0;
  std::uint64_t max_rounds = 0;

  std::unique_ptr<sim::TopologyView> topology() const {
    if (barbell) return std::make_unique<sim::BarbellTopology>(n);
    return std::make_unique<sim::CompleteTopology>(n);
  }
  core::Placement placement(std::uint64_t seed, std::uint64_t run) const {
    sim::Rng rng = sim::Rng::for_run(seed ^ kPlacementSalt, run);
    return core::uniform_distinct(k, n, rng);
  }
};

struct EngineRun {
  bool completed = false;
  std::uint64_t rounds = 0, packets = 0, helpful = 0, useless = 0;
  double setup_s = 0, wall_s = 0;
  std::vector<double> round_ms;
  std::vector<std::uint64_t> finish;  // per-node finish round
};

void record_swarm(const EngineSwarm& sw, EngineRun& out) {
  out.helpful = sw.helpful_receives();
  out.useless = sw.useless_receives();
  out.finish.resize(sw.node_count());
  for (std::size_t v = 0; v < out.finish.size(); ++v) {
    out.finish[v] = sw.finish_round(static_cast<NodeId>(v));
  }
}

// Builds the engine of run `run` on one shard (an explicit 1: 0 would read
// AG_SHARDS).
Engine make_engine(const EngineSpec& s, std::uint64_t seed, std::uint64_t run) {
  return Engine(s.topology(), s.placement(seed, run), core::AgConfig{}, seed, run, 1);
}

EngineRun run_engine(const EngineSpec& s, std::uint64_t seed, std::uint64_t run) {
  EngineRun out;
  const auto t0 = Clock::now();
  Engine e = make_engine(s, seed, run);
  out.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  while (!e.finished() && e.rounds_elapsed() < s.max_rounds) {
    const auto r0 = Clock::now();
    e.step_round();
    out.round_ms.push_back(1e3 * seconds_since(r0));
  }
  out.wall_s = seconds_since(t1);
  out.completed = e.finished();
  out.rounds = e.rounds_elapsed();
  out.packets = e.messages_delivered();
  record_swarm(e.swarm(), out);
  return out;
}

// Bench-side replay of ShardedUniformAG::step_round on one shard for the
// suite's config (synchronous EXCHANGE, lossless, recode, density 1), split
// into one pass per layer so each can be timed.  Every node draws from its
// own stream in the engine's order (partner, own combination, reply
// combination), so running all partner draws before all combinations
// replays the engine's run exactly.
class EngineReplay {
 public:
  EngineReplay(const EngineSpec& s, std::uint64_t seed, std::uint64_t run)
      : topo_(s.topology()), swarm_(s.n, s.placement(seed, run), 0), partner_(s.n, kIdle) {
    sim::Rng seeder = sim::Rng::for_run(seed, run);
    const std::uint64_t run_seed = seeder();
    rngs_.reserve(s.n);
    for (std::size_t v = 0; v < s.n; ++v) rngs_.push_back(sim::Rng::for_stream(run_seed, v));
  }

  bool finished() const noexcept { return swarm_.all_complete(); }
  std::uint64_t rounds() const noexcept { return round_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  const EngineSwarm& swarm() const noexcept { return swarm_; }

  void step_round(Tracer& tr) {
    tr.mark(kSample, sample());
    tr.mark(kCombine, combine());
    sort_batch();
    tr.mark(kTransport);
    const std::uint64_t inserted = insert();
    tr.mark(kInsert, inserted);
    delivered_ += inserted;
    swarm_.absorb_tally(tally_);
    tally_ = {};
    out_n_ = 0;
    ++round_;
    topo_->advance(round_ + 1);
    for (const NodeId v : topo_->rejoined()) swarm_.reset_node(v, round_);
    tr.mark(kBarrier);
  }

 private:
  static constexpr NodeId kIdle = ~NodeId{0};

  struct Envelope {
    std::uint64_t key = 0;  // activator * 2 + leg (1 = the EXCHANGE reply)
    NodeId from = 0, to = 0;
    Tracker::packet_type pkt;
  };

  // Each pass returns its work items (partner draws, combinations, inserts).
  std::uint64_t sample() {
    std::uint64_t calls = 0;
    for (NodeId v = 0; v < partner_.size(); ++v) {
      if (!topo_->alive(v) || topo_->degree(v) == 0) {
        partner_[v] = kIdle;
        continue;
      }
      partner_[v] = topo_->sample(v, rngs_[v]);
      ++calls;
    }
    return calls;
  }

  void emit(std::uint64_t key, NodeId from, NodeId to) {
    if (out_n_ == out_.size()) out_.emplace_back();
    Envelope& e = out_[out_n_++];
    e.key = key;
    e.from = from;
    e.to = to;
    e.pkt = buf_;
  }

  std::uint64_t combine() {
    std::uint64_t calls = 0;
    for (NodeId v = 0; v < partner_.size(); ++v) {
      const NodeId u = partner_[v];
      if (u == kIdle) continue;
      sim::Rng& rng = rngs_[v];
      calls += 2;
      if (swarm_.combine_into(v, rng, true, 1.0, buf_)) emit(2ull * v, v, u);
      if (swarm_.combine_into(u, rng, true, 1.0, buf_)) emit(2ull * v + 1, u, v);
    }
    return calls;
  }

  // The engine's deliver phase: collect the round's envelopes and order them
  // by (key, to).
  void sort_batch() {
    batch_.clear();
    for (std::size_t i = 0; i < out_n_; ++i) batch_.push_back(&out_[i]);
    std::sort(batch_.begin(), batch_.end(), [](const Envelope* a, const Envelope* b) {
      return a->key != b->key ? a->key < b->key : a->to < b->to;
    });
  }

  std::uint64_t insert() {
    for (const Envelope* e : batch_) swarm_.receive_tallied(e->to, e->pkt, round_, tally_);
    return batch_.size();
  }

  std::unique_ptr<sim::TopologyView> topo_;
  EngineSwarm swarm_;
  std::vector<NodeId> partner_;
  std::vector<sim::Rng> rngs_;
  std::vector<Envelope> out_;  // slot pool, reused across rounds
  std::size_t out_n_ = 0;
  std::vector<const Envelope*> batch_;
  EngineSwarm::ReceiveTally tally_;
  Tracker::packet_type buf_;
  std::uint64_t round_ = 0;
  std::uint64_t delivered_ = 0;
};

void engine_untraced(const EngineSpec& s, const Args& a, Report& rep) {
  EndToEnd e2e;
  time_setups(e2e.setup, [&](std::size_t i) { return make_engine(s, a.seed, i); });
  const EngineRun warm = run_engine(s, a.seed, 0);
  rep.attempt(warm.completed, "warm-up run 0 completes within its round budget");
  e2e.setup.push_back(warm.setup_s);

  timed_runs(a.seconds, kMinTimedRuns, [&](std::size_t i) {
    const EngineRun r = run_engine(s, a.seed, i);
    bool ok = r.completed;
    std::string what = "run " + std::to_string(i) + " completes within its round budget";
    if (i == 0) {
      ok = ok && r.finish == warm.finish && r.packets == warm.packets;
      what += " and repeats the warm-up node for node";
    }
    rep.attempt(ok, what);
    e2e.add_run(r.setup_s, r.wall_s, r.rounds, r.packets, r.round_ms);
  });
  e2e.report(rep);
}

void engine_traced(const EngineSpec& s, const Args& a, Report& rep, Tracer& tr) {
  const EngineRun warm = run_engine(s, a.seed, 0);
  rep.attempt(warm.completed, "warm-up run 0 completes within its round budget");
  LayerSamples ls;
  timed_runs(a.seconds, 1, [&](std::size_t i) {
    const EngineRun r = run_engine(s, a.seed, i);
    EngineReplay rp(s, a.seed, i);
    const auto run_id = static_cast<std::uint32_t>(i);
    while (!rp.finished() && rp.rounds() < s.max_rounds) {
      tr.begin_round(run_id, rp.rounds());
      rp.step_round(tr);
      tr.end_round();
    }
    EngineRun got;
    record_swarm(rp.swarm(), got);
    const bool same = rp.finished() && got.finish == r.finish && rp.delivered() == r.packets &&
                      got.helpful == r.helpful && got.useless == r.useless;
    ls.identical = ls.identical && same;
    rep.attempt(r.completed && same,
                "run " + std::to_string(i) + " completes and its traced replay is identical");
    ls.add_run(tr.totals(run_id));
    ls.untraced_wall.push_back(r.wall_s);
    ls.packets.push_back(static_cast<double>(r.packets));
    ls.helpful_ratio.push_back(static_cast<double>(r.helpful) /
                               static_cast<double>(r.helpful + r.useless));
    const std::vector<double> finish(r.finish.begin(), r.finish.end());
    ls.finish_p50.push_back(quantile(finish, 0.50));
    ls.finish_p99.push_back(quantile(finish, 0.99));
  });
  sim::Rng rng = sim::Rng::for_run(a.seed, kMicroRun);
  linalg::BitPacket frame;  // k coefficient bits; the wire requires spare bits zero
  frame.coeffs.assign(linalg::BitDecoder::words_for(s.k), 0);
  for (std::size_t i = 0; i < s.k; ++i) frame.coeffs[i / 64] |= (rng() & 1) << (i % 64);
  report_layers(rep, ls, frame, s.k, rng);
}

// ===========================================================================
// stream-gf256: StreamingSwarm<Gf256Decoder>.
// ===========================================================================
using StreamSwarm = coding::StreamingSwarm<core::Gf256Decoder>;
using Gf256Packet = linalg::DensePacket<gf::GF256>;

Gf256Packet random_frame(std::size_t k, std::size_t payload_len, sim::Rng& rng) {
  Gf256Packet p;
  p.coeffs.resize(k);
  p.payload.resize(payload_len);
  for (auto& c : p.coeffs) c = static_cast<std::uint8_t>(rng());
  for (auto& c : p.payload) c = static_cast<std::uint8_t>(rng());
  return p;
}

struct StreamSpec {
  std::size_t n = 0;
  coding::StreamConfig cfg;
  std::uint64_t max_rounds = 0;
};

struct StreamRun {
  bool completed = false;
  std::uint64_t rounds = 0, packets = 0, delivered = 0, stalled = 0, stale = 0;
  double setup_s = 0, wall_s = 0;
  std::vector<double> round_ms;
  std::vector<std::uint64_t> hist;
};

// `verified`, when given, receives whether every node got every message's
// exact payload, in order (checked through the delivery hook).
StreamRun run_stream(const StreamSpec& s, std::uint64_t seed, std::uint64_t run,
                     bool* verified) {
  StreamRun out;
  const auto t0 = Clock::now();
  StreamSwarm sw(std::make_unique<sim::CompleteTopology>(s.n), s.cfg);
  out.setup_s = seconds_since(t0);
  std::vector<std::uint64_t> next(s.n, 0);
  if (verified != nullptr) {
    *verified = true;
    sw.set_delivery_hook([&, verified](NodeId v, std::uint64_t m,
                                       std::span<const std::uint8_t> payload, std::uint64_t) {
      const auto want = core::RlncSwarm<core::Gf256Decoder>::expected_payload(
          static_cast<std::size_t>(m), s.cfg.payload_len);
      if (m != next[v]++ || !std::equal(want.begin(), want.end(), payload.begin(),
                                        payload.end())) {
        *verified = false;
      }
    });
  }
  sim::Rng rng = sim::Rng::for_run(seed, run);
  const auto t1 = Clock::now();
  while (!sw.finished() && sw.rounds_elapsed() < s.max_rounds) {
    const auto r0 = Clock::now();
    for (NodeId v = 0; v < s.n; ++v) sw.on_activate(v, rng);
    sw.end_round();
    out.round_ms.push_back(1e3 * seconds_since(r0));
  }
  out.wall_s = seconds_since(t1);
  out.completed = sw.finished();
  out.rounds = sw.rounds_elapsed();
  out.packets = sw.transport_stats().messages_delivered;
  out.delivered = sw.delivered_messages();
  out.stalled = sw.stalled_rounds();
  out.stale = sw.stale_packets();
  out.hist = sw.latency_histogram();
  if (verified != nullptr) {
    for (const std::uint64_t c : next) *verified = *verified && c == s.cfg.total_messages;
  }
  return out;
}

bool stream_ok(const StreamSpec& s, const StreamRun& r) {
  return r.completed && r.delivered == s.cfg.total_messages * s.n;
}

// Bench-side replay of StreamingSwarm's synchronous round for one stream,
// phase-attributed per activation.  All nodes share one RNG stream in node
// order, as under sim::run, so phases cannot be split into passes; the lap
// clock attributes each activation's time instead.
class StreamReplay {
 public:
  explicit StreamReplay(const StreamSpec& s)
      : cfg_(s.cfg),
        topo_(s.n),
        scheduler_(s.n, s.cfg),
        selector_(topo_),
        total_gens_(s.cfg.total_generations()),
        delivered_gens_(s.n, 0) {
    lanes_.reserve(cfg_.window);
    for (std::size_t w = 0; w < cfg_.window; ++w) {
      lanes_.emplace_back(s.n, cfg_.generation_size, cfg_.payload_len);
    }
    inject();
  }

  bool finished() const noexcept { return evicted_gens_ == total_gens_; }
  std::uint64_t rounds() const noexcept { return round_; }

  void step_round(sim::Rng& rng, Tracer& tr) {
    for (NodeId v = 0; v < topo_.node_count(); ++v) activate(v, rng, tr);
    // Barrier: the sim transport applies the round's sends in send order.
    double insert_s = 0;
    for (std::size_t i = 0; i < inbox_used_; ++i) {
      const auto t0 = Clock::now();
      deliver(inbox_[i].to, inbox_[i].msg);
      insert_s += seconds_since(t0);
    }
    tr.mark(kTransport);
    tr.reattribute(kTransport, kInsert, insert_s, inbox_used_);
    packets_ += inbox_used_;
    inbox_used_ = 0;
    ++round_;
    deliver_ready();
    evict_delivered();
    inject();
    tr.mark(kBarrier);
  }

  StreamRun result() const {
    StreamRun r;
    r.completed = finished();
    r.rounds = round_;
    r.packets = packets_;
    r.delivered = delivered_real_;
    r.stalled = stalled_rounds_;
    r.stale = stale_packets_;
    r.hist = latency_hist_;
    return r;
  }
  std::uint64_t helpful() const noexcept { return helpful_; }

 private:
  struct Lane {
    Lane(std::size_t n, std::size_t g, std::size_t payload_len)
        : swarm(core::Unseeded{}, n, g, payload_len) {}
    std::uint32_t gen = coding::GenerationScheduler::kNoGen;
    core::RlncSwarm<core::Gf256Decoder> swarm;
    std::vector<std::uint64_t> inject_round;
  };
  struct Envelope {
    NodeId to = 0;
    coding::StreamPacket<Gf256Packet> msg;
  };

  void activate(NodeId v, sim::Rng& rng, Tracer& tr) {
    if (!topo_.alive(v) || topo_.degree(v) == 0) return;
    candidates_.clear();
    for (std::uint32_t gen = evicted_gens_; gen < opened_gens_; ++gen) {
      const Lane& lane = lanes_[gen % cfg_.window];
      if (lane.gen == gen && lane.swarm.node(v).rank() > 0) candidates_.push_back(gen);
    }
    if (candidates_.empty()) {
      tr.mark(kSample);
      return;
    }
    const std::uint32_t gen =
        scheduler_.pick(v, std::span<const std::uint32_t>(candidates_), rng, round_);
    const NodeId u = selector_.pick(v, rng);
    tr.mark(kSample, 1);
    Lane& lane = lanes_[gen % cfg_.window];
    const bool sent = lane.swarm.combine_into(v, rng, buf_.body);
    tr.mark(kCombine, 1);
    if (!sent) return;
    buf_.generation = gen;
    buf_.sender_rank = static_cast<std::uint32_t>(lane.swarm.node(v).rank());
    if (inbox_used_ == inbox_.size()) inbox_.emplace_back();
    Envelope& e = inbox_[inbox_used_++];
    e.to = u;
    e.msg = buf_;
    tr.mark(kTransport);
  }

  void deliver(NodeId to, const coding::StreamPacket<Gf256Packet>& msg) {
    Lane& lane = lanes_[msg.generation % cfg_.window];
    if (lane.gen != msg.generation) {
      ++stale_packets_;
      return;
    }
    scheduler_.observe(to, msg.generation, msg.sender_rank, round_);
    if (lane.swarm.receive(to, msg.body, round_)) ++helpful_;
  }

  void deliver_ready() {
    for (std::size_t v = 0; v < delivered_gens_.size(); ++v) {
      while (delivered_gens_[v] < opened_gens_) {
        const std::uint32_t gen = delivered_gens_[v];
        const Lane& lane = lanes_[gen % cfg_.window];
        if (lane.gen != gen || !lane.swarm.node(static_cast<NodeId>(v)).full_rank()) break;
        const std::uint64_t base = static_cast<std::uint64_t>(gen) * cfg_.generation_size;
        for (std::size_t i = 0; i < cfg_.generation_size; ++i) {
          if (base + i >= cfg_.total_messages) break;
          ++delivered_real_;
          const std::uint64_t lat = round_ - lane.inject_round[i];
          if (latency_hist_.size() <= lat) latency_hist_.resize(lat + 1, 0);
          ++latency_hist_[lat];
        }
        ++delivered_gens_[v];
      }
    }
  }

  void evict_delivered() {
    while (evicted_gens_ < opened_gens_) {
      const std::uint32_t gen = evicted_gens_;
      for (const std::uint32_t d : delivered_gens_) {
        if (d <= gen) return;
      }
      Lane& lane = lanes_[gen % cfg_.window];
      scheduler_.close(gen);
      lane.gen = coding::GenerationScheduler::kNoGen;
      lane.swarm.restart();
      ++evicted_gens_;
    }
  }

  void inject() {
    const std::uint64_t padded = static_cast<std::uint64_t>(total_gens_) * cfg_.generation_size;
    for (std::size_t b = 0; b < cfg_.inject_per_round; ++b) {
      if (next_inject_ >= padded) return;
      const auto gen = static_cast<std::uint32_t>(next_inject_ / cfg_.generation_size);
      if (gen >= evicted_gens_ + cfg_.window) {
        ++stalled_rounds_;
        return;
      }
      Lane& lane = lanes_[gen % cfg_.window];
      if (lane.gen != gen) {
        lane.gen = gen;
        lane.inject_round.assign(cfg_.generation_size, 0);
        scheduler_.open(gen);
        opened_gens_ = std::max(opened_gens_, gen + 1);
      }
      const std::size_t i = next_inject_ % cfg_.generation_size;
      const auto payload = core::RlncSwarm<core::Gf256Decoder>::expected_payload(
          static_cast<std::size_t>(next_inject_), cfg_.payload_len);
      decltype(auto) d = lane.swarm.node(cfg_.source);
      lane.swarm.receive(cfg_.source, d.unit_packet(i, payload), round_);
      lane.inject_round[i] = round_;
      ++next_inject_;
    }
  }

  coding::StreamConfig cfg_;
  sim::CompleteTopology topo_;
  coding::GenerationScheduler scheduler_;
  sim::UniformSelector selector_;
  std::uint32_t total_gens_;
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> delivered_gens_;
  std::uint32_t opened_gens_ = 0, evicted_gens_ = 0;
  std::uint64_t next_inject_ = 0, round_ = 0;
  std::uint64_t delivered_real_ = 0, stalled_rounds_ = 0, stale_packets_ = 0;
  std::uint64_t packets_ = 0, helpful_ = 0;
  std::vector<std::uint64_t> latency_hist_;
  std::vector<std::uint32_t> candidates_;
  coding::StreamPacket<Gf256Packet> buf_;
  std::vector<Envelope> inbox_;  // slot pool, like the sim transport's
  std::size_t inbox_used_ = 0;
};

void stream_untraced(const StreamSpec& s, const Args& a, Report& rep) {
  EndToEnd e2e;
  time_setups(e2e.setup, [&](std::size_t) {
    return StreamSwarm(std::make_unique<sim::CompleteTopology>(s.n), s.cfg);
  });
  bool verified = false;
  const StreamRun warm = run_stream(s, a.seed, 0, &verified);
  rep.attempt(stream_ok(s, warm) && verified,
              "warm-up run 0 delivers every payload in order at every node");
  e2e.setup.push_back(warm.setup_s);

  timed_runs(a.seconds, kMinTimedRuns, [&](std::size_t i) {
    const StreamRun r = run_stream(s, a.seed, i, nullptr);
    bool ok = stream_ok(s, r);
    if (i == 0) ok = ok && r.rounds == warm.rounds && r.hist == warm.hist;
    rep.attempt(ok, "run " + std::to_string(i) + " delivers the whole stream everywhere");
    e2e.add_run(r.setup_s, r.wall_s, r.rounds, r.packets, r.round_ms);
  });
  e2e.report(rep);
  rep.note("msgs_per_s", static_cast<double>(s.cfg.total_messages) / median(e2e.wall), "1/s");
  const auto [p50, p99] = hist_quantiles(warm.hist);
  rep.note("latency_rounds_p50", p50, "rounds");
  rep.note("latency_rounds_p99", p99, "rounds");
  rep.note("stall_frac", static_cast<double>(warm.stalled) / static_cast<double>(warm.rounds),
           "ratio");
}

void stream_traced(const StreamSpec& s, const Args& a, Report& rep, Tracer& tr) {
  bool verified = false;
  const StreamRun warm = run_stream(s, a.seed, 0, &verified);
  rep.attempt(stream_ok(s, warm) && verified,
              "warm-up run 0 delivers every payload in order at every node");
  LayerSamples ls;
  timed_runs(a.seconds, 1, [&](std::size_t i) {
    const StreamRun r = run_stream(s, a.seed, i, nullptr);
    StreamReplay rp(s);
    sim::Rng rng = sim::Rng::for_run(a.seed, i);
    const auto run_id = static_cast<std::uint32_t>(i);
    while (!rp.finished() && rp.rounds() < s.max_rounds) {
      tr.begin_round(run_id, rp.rounds());
      rp.step_round(rng, tr);
      tr.end_round();
    }
    const StreamRun got = rp.result();
    const bool same = got.completed && got.rounds == r.rounds && got.packets == r.packets &&
                      got.delivered == r.delivered && got.stalled == r.stalled &&
                      got.stale == r.stale && got.hist == r.hist;
    ls.identical = ls.identical && same;
    rep.attempt(stream_ok(s, r) && same,
                "run " + std::to_string(i) + " completes and its traced replay is identical");
    ls.add_run(tr.totals(run_id));
    ls.untraced_wall.push_back(r.wall_s);
    ls.packets.push_back(static_cast<double>(r.packets));
    ls.helpful_ratio.push_back(static_cast<double>(rp.helpful()) /
                               static_cast<double>(got.packets));
    const auto [p50, p99] = hist_quantiles(r.hist);
    ls.finish_p50.push_back(p50);
    ls.finish_p99.push_back(p99);
  });
  sim::Rng rng = sim::Rng::for_run(a.seed, kMicroRun);
  const Gf256Packet frame = random_frame(s.cfg.generation_size, s.cfg.payload_len, rng);
  report_layers(rep, ls, frame, s.cfg.generation_size, rng);
}

// ===========================================================================
// Workload table
// ===========================================================================
constexpr std::size_t kCompleteN = 100000;
constexpr std::size_t kBarbellN = 128;

EngineSpec complete_spec(const Args& a) {
  EngineSpec s;
  s.n = a.smoke ? 2000 : kCompleteN;
  s.k = 32;
  s.max_rounds = 1000;
  return s;
}

EngineSpec barbell_spec(const Args& a) {
  EngineSpec s;
  s.barbell = true;
  s.n = a.smoke ? 32 : kBarbellN;
  s.k = a.smoke ? 8 : 32;
  s.max_rounds = 200 * s.n;
  return s;
}

StreamSpec stream_spec(const Args& a) {
  StreamSpec s;
  s.n = a.smoke ? 16 : 64;
  s.cfg.generation_size = 16;
  s.cfg.window = 4;
  s.cfg.policy = coding::GenPolicy::RarestFirst;
  s.cfg.payload_len = a.smoke ? 64 : 1024;
  s.cfg.inject_per_round = 2;
  s.cfg.total_messages = a.smoke ? 256 : 8192;
  s.max_rounds = 20 * s.cfg.total_messages;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  const Args a = parse_args(argc, argv);
  Report rep;
  Tracer tr(origin);
  const std::string& w = a.workload;
  try {
    if (w == "complete-100k" || w == "barbell-128") {
      const EngineSpec s = w == "barbell-128" ? barbell_spec(a) : complete_spec(a);
      if (a.trace) {
        engine_traced(s, a, rep, tr);
      } else {
        engine_untraced(s, a, rep);
      }
    } else if (w == "stream-gf256") {
      const StreamSpec s = stream_spec(a);
      if (a.trace) {
        stream_traced(s, a, rep, tr);
      } else {
        stream_untraced(s, a, rep);
      }
    } else {
      usage(("unknown workload " + w).c_str());
    }
  } catch (const std::exception& e) {
    rep.attempt(false, std::string("exception: ") + e.what());
  }
  if (a.trace && !a.trace_out.empty() && !tr.write(a.trace_out, w)) {
    rep.attempt(false, "write trace file " + a.trace_out);
  }
  rep.print_json(w, provenance_json(a));
  return rep.correct() ? 0 : 1;
}
