// common.hpp — shared pieces of the repository benchmark (README.md here):
// command line, workload spec generators, timing and statistics helpers,
// the allocation census, the in-memory span log and the result report.
//
// Everything in this directory drives the library through its public
// headers and times calls from outside; no code under src/ is changed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "awd.hpp"

namespace perfbench {

// ----------------------------------------------------------------- clock

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// -------------------------------------------------------- command line

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its span file
};

// ------------------------------------------------------------ workloads

/// Named workloads.  Each maps a stream index to a spec, deterministically
/// from the workload seed; the library only ever sees the generated specs.
enum class Workload { kSingleLoop, kFleet, kLongHorizon };

/// Parse a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w) noexcept;

/// splitmix64 finalizer: the per-stream seed and per-stream length draws.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Stream `index` of workload `w` under `seed`.  The spec's case carries the
/// stream length (scase.steps) and spec.steps stays 0, so run_cell_once on
/// (spec.scase, spec.attack, spec.seed) runs exactly what the engine runs.
awd::serve::StreamSpec make_spec(Workload w, std::uint64_t seed, std::size_t index);

/// Length of the workload's shortest stream, in steps.
std::size_t shortest_stream(Workload w) noexcept;

/// Distinct plant × attack combinations of a workload; indexes
/// 0..combos-1 cover each combination once.
std::size_t combo_count(Workload w) noexcept;

/// Streams whose drained results define the quality metrics (a fixed index
/// prefix, so the metrics are a pure function of the seed).
std::size_t quality_set_size(Workload w) noexcept;

/// The engine's scoring options, applied to the standalone paths too so
/// both sides score identically.
awd::MetricsOptions guarded(const awd::SimulatorCase& scase);

// ------------------------------------------------------------ statistics

/// q-quantile (0..1) by nearest rank; reorders `v`.  0 for an empty input.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// The quiet value of repetitions spread through a run (checkpoint pauses,
/// restores): their kQuietShare quantile.  See Windows.
double quiet(std::vector<double> v);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Latency histogram at 1 ns resolution (samples above kMaxNs land in the
/// top bucket; the true maximum is kept separately).  Fixed memory, so
/// millions of per-step samples do not inflate peak_rss_mb.
class NsHistogram {
 public:
  static constexpr std::size_t kMaxNs = 200000;
  NsHistogram() : counts_(kMaxNs + 1, 0) {}
  void add(std::uint64_t ns) noexcept {
    ++counts_[ns < kMaxNs ? ns : kMaxNs];
    ++n_;
    sum_ += ns;
    if (ns > max_) max_ = ns;
  }
  void merge(const NsHistogram& o) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
  }
  [[nodiscard]] double mean() const noexcept {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }
  [[nodiscard]] double max() const noexcept { return static_cast<double>(max_); }
  /// q-quantile (0..1) by nearest rank, in ns.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Share of a run's windows (and of its spread-out repetitions) that the
/// timing metrics are read from: the quietest tenth.
inline constexpr double kQuietShare = 0.10;

/// A timed run cut into windows of equal work, each holding one or more
/// series of latency samples.  On a shared host the program's speed drops
/// by 20–80 % for a second or more at a time while neighbours load the same
/// cores and caches, so a median over the whole run reads how much of the
/// run such phases hit.  That noise only ever slows a window down.  The
/// timing metrics are therefore read from the quiet windows: the tenth
/// with the highest throughput.  A change to the program moves every
/// window, quiet ones included.
class Windows {
 public:
  explicit Windows(std::size_t series) : open_(series) {}

  /// One latency sample of `series` in the open window.
  void add(std::size_t series, double value) { open_[series].push_back(value); }
  /// Close the open window: `steps` stream-steps in `seconds` of wall time.
  /// Returns the window's throughput.
  double close(std::uint64_t steps, double seconds);

  /// Medians over the quiet windows of each window's throughput and of each
  /// series' per-window p50 and p90.
  struct Quiet {
    double steps_per_s = 0.0;
    std::vector<double> p50, p90;
    std::size_t windows = 0;  ///< quiet windows
  };
  [[nodiscard]] Quiet quiet() const;
  [[nodiscard]] std::size_t size() const noexcept { return closed_.size(); }

 private:
  struct Window {
    double steps_per_s;
    std::vector<double> p50, p90;
  };
  std::vector<std::vector<double>> open_;
  std::vector<Window> closed_;
};

/// Moves the calling thread off a vCPU that a neighbour has slowed down.
/// On a shared host the contention comes and goes per vCPU: at any moment
/// one vCPU often runs this code 30 % faster than the others.  After each
/// window, when the window ran more than kSlowShare below the run's best,
/// the thread is pinned to the next allowed vCPU.  Only for serial timed
/// loops: threads created while pinned would inherit the single-vCPU mask.
class CoreHopper {
 public:
  static constexpr double kSlowShare = 0.15;
  CoreHopper();
  /// Report a closed window's throughput; may move the thread.
  void window(double steps_per_s);
  [[nodiscard]] std::size_t hops() const noexcept { return hops_; }

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
  double best_ = 0.0;
  std::size_t since_hop_ = 0;
  std::size_t hops_ = 0;
};

// ---------------------------------------------------- allocation census

/// Heap allocations made by the calling thread so far (counted by the
/// replacement operator new in alloc_census.cpp).
std::uint64_t thread_allocations() noexcept;

// ------------------------------------------------------------- quality

/// Detection quality over a fixed set of finished streams.
struct Quality {
  double fp_rate_sum = 0.0;
  std::size_t streams = 0;
  std::size_t attacked = 0;
  std::size_t deadline_misses = 0;
  double delay_sum = 0.0;
  std::size_t detected = 0;

  void add(const awd::serve::StreamSpec& spec, const awd::RunMetrics& adaptive);
  [[nodiscard]] double false_alarm_rate() const;
  [[nodiscard]] double deadline_miss_frac() const;
  [[nodiscard]] double detect_delay_steps() const;
};

/// Bitwise equality of two run-metric records (doubles compared by bits).
bool same_metrics(const awd::RunMetrics& a, const awd::RunMetrics& b);
/// Bitwise equality of two drained stream results.
bool same_result(const awd::serve::StreamResult& a, const awd::serve::StreamResult& b);
bool same_bits(const awd::linalg::Vec& a, const awd::linalg::Vec& b);
bool same_bits(double a, double b);
/// Bitwise equality of every field of two step records.
bool same_record(const awd::StepRecord& a, const awd::StepRecord& b);

// ------------------------------------------------------------- spans

/// One traced call: a name, its interval, the span that caused it, and the
/// request it belongs to (workload, stream, control step).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< 1-based index of the parent span, 0 = root
  std::uint64_t stream = 0;
  std::uint64_t t = 0;
};

/// Spans kept in memory and written out once, at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  /// Record a finished span; returns its 1-based id (0 when the log is
  /// full — the span is counted as dropped).
  std::uint32_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t parent, std::uint64_t stream, std::uint64_t t);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Mean duration (µs) of the spans named `name`; 0 when there are none.
  [[nodiscard]] double mean_us(const char* name) const;

  /// Write one JSON line per span after a header line with the fingerprint.
  bool write_jsonl(const std::string& path, const std::string& header_json,
                   const char* workload) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// ------------------------------------------------------------- report

/// What a run prints: named metrics with units, the correctness verdict and
/// the attempted/failed operation counts.  error_rate = failed / attempted.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one attempted operation; a false `ok` counts it as failed and
  /// marks the run incorrect, with `what` printed as a diagnostic.
  void op(bool ok, const std::string& what);
  /// Print a free-form diagnostic line (stdout, before the result line).
  static void note(const std::string& line);

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  /// The contract's final line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host and build fingerprint (nproc, CPU model, SIMD level, build type,
/// AWD_OBS state, workload, seed) as a JSON object.
std::string fingerprint_json(const Args& args);

// ------------------------------------------------------- engine loop

/// One closed-loop StreamEngine run: `population` streams of a workload are
/// admitted, then back-to-back step_all() ticks are driven from this thread;
/// each finished stream is drained and replaced by the next spec, so the
/// population stays constant.
struct EngineLoopConfig {
  Workload workload = Workload::kFleet;
  std::uint64_t seed = 1;
  std::size_t population = 1024;
  std::size_t ramp_per_tick = 0;      ///< admit this many per ramp step (0 = all at set-up)
  std::size_t ramp_every = 1;         ///< ticks between ramp steps
  std::size_t threads = 1;            ///< engine worker threads (== shards)
  std::size_t recorder_depth = 256;   ///< the engine's shipped default
  std::size_t warmup_ticks = 0;       ///< ticks before the timed part starts
  std::size_t window_ticks = 25;      ///< ticks per timing window
  double seconds = 1.0;               ///< time the loop at least this long...
  std::size_t min_ticks = 0;          ///< ...and run at least this many ticks...
  bool require_quality = false;       ///< ...and until the quality set drained
  std::size_t ckpt_every = 0;         ///< checkpoint() every N timed ticks (a multiple
                                      ///< of window_ticks; taken between windows)
  std::size_t probe_tick = 0;         ///< tick of the restore image (0 = none)
  /// Every `rep_every` windows, between windows: one timed set-up of a fresh
  /// engine and one timed restore of the probe image (0 = neither).
  std::size_t rep_every = 0;
  std::size_t introspect_every = 0;   ///< introspect() every N ticks
  bool hop_cores = false;             ///< CoreHopper between windows (1 thread only)
  SpanLog* spans = nullptr;           ///< traced when non-null
};

struct EngineLoopResult {
  std::unique_ptr<awd::StreamEngine> engine;
  awd::StreamEngineOptions options;
  std::vector<double> setup_s;      ///< the running engine's set-up, then the reps
  /// Peak resident set before the first restore rep, which holds a second
  /// engine: the serving loop's own peak.
  double peak_rss_mb = 0.0;
  std::vector<double> restore_s;    ///< restore reps of the probe image
  // Timed part (after the warm-up ticks).
  std::uint64_t stream_steps = 0;
  double wall_s = 0.0;
  /// Series kTickMs: step_all() wall time per tick; kStepUs: worker-µs per
  /// stream-step, per tick.  Window time leaves out checkpoints and reps.
  Windows windows{2};
  static constexpr std::size_t kTickMs = 0, kStepUs = 1;
  std::vector<double> tick_ms;      ///< every timed tick, for the tail note
  std::vector<double> ckpt_ms;      ///< checkpoint() pauses, probe and periodic
  std::uint64_t ticks = 0;          ///< all ticks, warm-up included
  std::vector<std::uint8_t> probe_image;
  std::vector<awd::StreamId> probe_ids;  ///< streams inside the probe image
  std::size_t checkpoint_streams = 0;    ///< running streams at the probe tick
  /// Drained results of the streams that matter after the loop: the quality
  /// set (sampled for run_cell_once) and the probe image's streams.
  std::unordered_map<awd::StreamId, awd::StreamResult> results;
  std::unordered_map<awd::StreamId, std::size_t> index_of;  ///< id → spec index
  Quality quality;
  std::uint64_t dumps_written = 0;
  std::size_t core_hops = 0;
};

EngineLoopResult run_engine_loop(const EngineLoopConfig& cfg, Report& report);

/// A workload's engine shape: population, one shard, admission ramp,
/// throughput window and checkpoint cadence (single_loop's is the one its
/// traced run uses for engine attribution).
EngineLoopConfig engine_config(Workload w, std::uint64_t seed);

// ------------------------------------------------------------- runs

void run_single_loop(const Args& args, Report& report);
void run_engine_workload(const Args& args, Workload w, Report& report);
/// The traced run: per-layer ledger, checkpoint growth, engine attribution.
void run_traced(const Args& args, Workload w, Report& report);

}  // namespace perfbench
