#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

using awd::AttackKind;

const std::vector<awd::SimulatorCase>& plants() {
  static const std::vector<awd::SimulatorCase> cases = awd::table1_cases();
  return cases;
}

// Attack mixes.  single_loop covers the paper's scenarios plus the stealthy
// adversary; fleet adds every other registered attack so the engine sees
// the full mix; long_horizon is dominated by the history-reading attacks
// (whose per-stream state grows with t) with an attack-free share.
constexpr AttackKind kSingleLoopAttacks[] = {AttackKind::kNone, AttackKind::kBias,
                                             AttackKind::kDelay, AttackKind::kReplay,
                                             AttackKind::kStealthyRamp};
constexpr AttackKind kFleetAttacks[] = {
    AttackKind::kNone,         AttackKind::kBias,         AttackKind::kDelay,
    AttackKind::kReplay,       AttackKind::kRamp,         AttackKind::kFreeze,
    AttackKind::kStealthyRamp, AttackKind::kJitterReplay, AttackKind::kCoordinatedBias,
    AttackKind::kIntermittentBias};
constexpr AttackKind kLongHorizonAttacks[] = {AttackKind::kNone, AttackKind::kReplay,
                                              AttackKind::kDelay, AttackKind::kJitterReplay};

constexpr std::size_t kFleetMinSteps = 300;
constexpr std::size_t kLongHorizonSteps = 2000;

template <std::size_t N>
AttackKind pick(const AttackKind (&attacks)[N], std::size_t attack_index) {
  return attacks[attack_index % N];
}

std::size_t attack_count(Workload w) noexcept {
  switch (w) {
    case Workload::kSingleLoop: return std::size(kSingleLoopAttacks);
    case Workload::kFleet: return std::size(kFleetAttacks);
    case Workload::kLongHorizon: return std::size(kLongHorizonAttacks);
  }
  return 1;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
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
  out += '"';
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kSingleLoop, Workload::kFleet, Workload::kLongHorizon}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kSingleLoop: return "single_loop";
    case Workload::kFleet: return "fleet";
    case Workload::kLongHorizon: return "long_horizon";
  }
  return "?";
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t shortest_stream(Workload w) noexcept {
  switch (w) {
    case Workload::kSingleLoop: {
      std::size_t shortest = plants().front().steps;
      for (const awd::SimulatorCase& c : plants()) shortest = std::min(shortest, c.steps);
      return shortest;
    }
    case Workload::kFleet: return kFleetMinSteps;
    case Workload::kLongHorizon: return kLongHorizonSteps;
  }
  return 0;
}

std::size_t combo_count(Workload w) noexcept { return plants().size() * attack_count(w); }

std::size_t quality_set_size(Workload w) noexcept {
  switch (w) {
    case Workload::kSingleLoop: return 3000;
    case Workload::kFleet: return 2048;
    case Workload::kLongHorizon: return 3000;  // 150 streams of each combination
  }
  return 0;
}

awd::serve::StreamSpec make_spec(Workload w, std::uint64_t seed, std::size_t index) {
  // Plants vary fastest, so any five consecutive streams cover every plant
  // family (and the first admission builds every deadline backend).
  const std::size_t combo = index % combo_count(w);
  const std::size_t plant_n = plants().size();
  const std::uint64_t stream_seed = mix64(mix64(seed) + index);
  awd::serve::StreamSpec spec;
  spec.scase = plants()[combo % plant_n];
  spec.seed = stream_seed;
  switch (w) {
    case Workload::kSingleLoop:
      spec.attack = pick(kSingleLoopAttacks, combo / plant_n);
      break;
    case Workload::kFleet:
      spec.attack = pick(kFleetAttacks, combo / plant_n);
      // Short streams of staggered length (300..500 steps), so finished
      // streams leave, and fresh ones arrive, on every tick.
      spec.scase.steps =
          kFleetMinSteps + static_cast<std::size_t>(mix64(stream_seed ^ 0x5eed) % 201);
      break;
    case Workload::kLongHorizon:
      spec.attack = pick(kLongHorizonAttacks, combo / plant_n);
      spec.scase.steps = kLongHorizonSteps;
      break;
  }
  spec.metrics = guarded(spec.scase);
  return spec;
}

awd::MetricsOptions guarded(const awd::SimulatorCase& scase) {
  awd::MetricsOptions options;
  options.post_attack_guard = scase.max_window;
  return options;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double quiet(std::vector<double> v) { return quantile(v, kQuietShare); }

double Windows::close(std::uint64_t steps, double seconds) {
  Window w;
  w.steps_per_s = static_cast<double>(steps) / seconds;
  for (std::vector<double>& samples : open_) {
    w.p50.push_back(quantile(samples, 0.50));
    w.p90.push_back(quantile(samples, 0.90));
    samples.clear();
  }
  closed_.push_back(std::move(w));
  return closed_.back().steps_per_s;
}

Windows::Quiet Windows::quiet() const {
  Quiet out;
  if (closed_.empty()) return out;
  std::vector<const Window*> order;
  for (const Window& w : closed_) order.push_back(&w);
  std::sort(order.begin(), order.end(),
            [](const Window* a, const Window* b) { return a->steps_per_s > b->steps_per_s; });
  out.windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(kQuietShare * static_cast<double>(order.size())));
  order.resize(out.windows);
  std::vector<double> v;
  for (const Window* w : order) v.push_back(w->steps_per_s);
  out.steps_per_s = median(v);
  for (std::size_t s = 0; s < open_.size(); ++s) {
    v.clear();
    for (const Window* w : order) v.push_back(w->p50[s]);
    out.p50.push_back(median(v));
    v.clear();
    for (const Window* w : order) v.push_back(w->p90[s]);
    out.p90.push_back(median(v));
  }
  return out;
}

namespace {

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CoreHopper::CoreHopper() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) return;
  const int now = sched_getcpu();
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (cpus_[i] == now) at_ = i;
  }
  pin_to(cpus_[at_]);
}

void CoreHopper::window(double steps_per_s) {
  if (cpus_.size() < 2) return;
  best_ = std::max(best_, steps_per_s);
  ++since_hop_;
  // Two windows on a vCPU before judging it: the first after a move also
  // refills the caches.
  if (since_hop_ >= 2 && steps_per_s < (1.0 - kSlowShare) * best_) {
    at_ = (at_ + 1) % cpus_.size();
    pin_to(cpus_[at_]);
    since_hop_ = 0;
    ++hops_;
  }
}

double NsHistogram::quantile(double q) const noexcept {
  if (n_ == 0) return 0.0;
  const std::uint64_t rank =
      std::min<std::uint64_t>(n_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
    seen += counts_[ns];
    if (seen > rank) return static_cast<double>(ns);
  }
  return static_cast<double>(kMaxNs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Quality::add(const awd::serve::StreamSpec& spec, const awd::RunMetrics& adaptive) {
  ++streams;
  fp_rate_sum += adaptive.fp_rate;
  if (spec.attack == awd::AttackKind::kNone) return;
  ++attacked;
  if (adaptive.deadline_miss) ++deadline_misses;
  // A detection is an alarm while attacked samples are still inside the
  // window (onset up to attack end plus the scoring guard); a first alarm
  // after that is a false alarm on a long stream, not a late detection.
  const std::size_t horizon = spec.scase.attack_duration + spec.metrics.post_attack_guard;
  if (adaptive.detection_delay && *adaptive.detection_delay < horizon) {
    delay_sum += static_cast<double>(*adaptive.detection_delay);
    ++detected;
  }
}

double Quality::false_alarm_rate() const {
  return streams == 0 ? 0.0 : fp_rate_sum / static_cast<double>(streams);
}
double Quality::deadline_miss_frac() const {
  return attacked == 0 ? 0.0
                       : static_cast<double>(deadline_misses) / static_cast<double>(attacked);
}
double Quality::detect_delay_steps() const {
  return detected == 0 ? 0.0 : delay_sum / static_cast<double>(detected);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const awd::linalg::Vec& a, const awd::linalg::Vec& b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_record(const awd::StepRecord& a, const awd::StepRecord& b) {
  return a.t == b.t && same_bits(a.true_state, b.true_state) &&
         same_bits(a.measurement, b.measurement) && same_bits(a.estimate, b.estimate) &&
         same_bits(a.predicted, b.predicted) && same_bits(a.residual, b.residual) &&
         same_bits(a.control, b.control) && same_bits(a.commanded, b.commanded) &&
         a.attack_active == b.attack_active && a.deadline == b.deadline &&
         a.window == b.window && a.adaptive_alarm == b.adaptive_alarm &&
         a.fixed_alarm == b.fixed_alarm && a.unsafe == b.unsafe &&
         same_bits(a.residual_norm, b.residual_norm) &&
         same_bits(a.detect_stat, b.detect_stat) && a.fault == b.fault &&
         a.sample_missing == b.sample_missing && a.estimate_fallback == b.estimate_fallback &&
         a.residual_quarantined == b.residual_quarantined &&
         a.deadline_fallback == b.deadline_fallback && a.health == b.health;
}

bool same_metrics(const awd::RunMetrics& a, const awd::RunMetrics& b) {
  return same_bits(a.fp_rate, b.fp_rate) &&
         a.first_alarm_after_onset == b.first_alarm_after_onset &&
         a.detection_delay == b.detection_delay &&
         a.deadline_at_onset == b.deadline_at_onset &&
         a.fp_experiment == b.fp_experiment && a.deadline_miss == b.deadline_miss &&
         a.false_negative == b.false_negative && a.first_unsafe == b.first_unsafe;
}

bool same_result(const awd::serve::StreamResult& a, const awd::serve::StreamResult& b) {
  return a.id == b.id && a.status.code() == b.status.code() && a.steps == b.steps &&
         same_metrics(a.adaptive, b.adaptive) && same_metrics(a.fixed, b.fixed) &&
         a.final_health == b.final_health &&
         a.adaptive_evaluations == b.adaptive_evaluations;
}

std::uint32_t SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint32_t parent, std::uint64_t stream, std::uint64_t t) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, stream, t});
  return static_cast<std::uint32_t>(spans_.size());
}

double SpanLog::mean_us(const char* name) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool SpanLog::write_jsonl(const std::string& path, const std::string& header_json,
                          const char* workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fingerprint\": %s, \"spans\": %zu, \"dropped\": %zu}\n",
               header_json.c_str(), spans_.size(), dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %u, \"request\": {\"workload\": \"%s\", \"stream\": %llu, "
                 "\"t\": %llu}}\n",
                 i + 1, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, workload,
                 static_cast<unsigned long long>(s.stream),
                 static_cast<unsigned long long>(s.t));
  }
  return std::fclose(f) == 0;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) op(false, "metric " + name + " is not finite");
  metrics_.push_back(Entry{name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    note("FAILED: " + what);
  }
}

void Report::note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    append_json_string(out, metrics_[i].name);
    out += ": {\"value\": " + number(metrics_[i].value) + ", \"unit\": ";
    append_json_string(out, metrics_[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string fingerprint_json(const Args& args) {
  std::string out = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": ";
  append_json_string(out, cpu_model());
  out += ", \"simd\": ";
  append_json_string(out, awd::linalg::kernels::level_name(
                              awd::linalg::kernels::active_level()));
  out += ", \"build_type\": ";
  append_json_string(out, AWD_PERFBENCH_BUILD_TYPE);
  out += std::string(", \"awd_obs\": ") + (awd::obs::enabled() ? "\"on\"" : "\"off\"");
  out += ", \"workload\": ";
  append_json_string(out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += '}';
  return out;
}

}  // namespace perfbench
