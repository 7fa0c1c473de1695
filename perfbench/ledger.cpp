// The traced run (--trace 1): per-layer metrics for one workload.
//
//   1. Layer ledger.  Each step of the workload's plant × attack mix is
//      recomposed from the six public layer calls, in
//      DetectionSystem::step_into's order, with a span around every call
//      under one parent span per step.  A twin DetectionSystem on the same
//      spec steps alongside, untraced; every recomposed record must equal
//      the twin's bit for bit.  The recomposition copies the system's
//      deadline fallback and health wiring, and this check keeps the copy
//      honest.
//   2. Checkpoint growth: serialized state per stream at two ages.
//   3. Engine attribution from outside: the workload's engine loop (one
//      shard, shipped defaults), traced, at full width, at recorder depth 0
//      and with observability off.
#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSpanCap = 150000;
constexpr std::size_t kLedgerSpanSteps = 8000;  ///< steps of pass 1 kept as spans
constexpr std::size_t kGrowthFrom = 500;        ///< checkpoint-growth ages (steps)
constexpr std::size_t kGrowthTo = 1500;

/// Per-layer accumulators of one ledger pass.
struct Ledger {
  NsHistogram sim, logger, reach, adaptive, fixed, health, traced, untraced;
  double unexplained_ns = 0.0;  ///< parent span minus its children, summed
  // Work counts (exact; must repeat bit for bit at a fixed seed).
  std::uint64_t steps = 0;
  std::uint64_t census_steps = 0;  ///< steady-state steps (logger ring full)
  std::uint64_t sim_allocs = 0;
  std::uint64_t core_allocs = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t deadline_sum = 0;
  std::uint64_t fallbacks = 0;
  struct Census {
    std::uint64_t sim_allocs = 0;
    std::uint64_t core_allocs = 0;
    std::uint64_t layer_allocs[5] = {};  ///< logger, reach, adaptive, fixed, health
    std::uint64_t steps = 0;
  };
  std::map<std::string, Census> census_by_attack;
  // Slowest traced step and the layer that dominated it.
  std::uint64_t slowest_ns = 0;
  std::string slowest_where;

  void merge_timing(const Ledger& o) {
    for (auto [dst, src] : {std::pair{&sim, &o.sim}, {&logger, &o.logger}, {&reach, &o.reach},
                            {&adaptive, &o.adaptive}, {&fixed, &o.fixed}, {&health, &o.health},
                            {&traced, &o.traced}, {&untraced, &o.untraced}}) {
      dst->merge(*src);
    }
    unexplained_ns += o.unexplained_ns;
    steps += o.steps;
    if (o.slowest_ns > slowest_ns) {
      slowest_ns = o.slowest_ns;
      slowest_where = o.slowest_where;
    }
  }

  [[nodiscard]] bool same_counts(const Ledger& o) const {
    return steps == o.steps && census_steps == o.census_steps && sim_allocs == o.sim_allocs &&
           core_allocs == o.core_allocs && evaluations == o.evaluations &&
           shrinks == o.shrinks && deadline_sum == o.deadline_sum && fallbacks == o.fallbacks;
  }
};

awd::sim::Simulator build_simulator(const awd::serve::StreamSpec& spec) {
  const awd::SimulatorCase& c = spec.scase;
  awd::sim::SimulatorOptions opts;
  opts.x0 = c.x0;
  opts.reference = c.reference;
  opts.sensor_noise = c.sensor_noise;
  opts.seed = spec.seed;
  opts.predict_with_commanded = c.predict_with_commanded;
  opts.reference_schedule = c.reference_schedule;
  opts.reference_sinusoids = c.reference_sinusoids;
  return awd::sim::Simulator(awd::sim::Plant(c.model, c.u_range, c.eps, c.x0),
                             c.make_controller(), c.make_attack(spec.attack), std::move(opts));
}

/// One ledger pass over `specs`.  Returns false on the first mismatch
/// between the recomposed step and the twin system.
bool ledger_pass(const std::vector<awd::serve::StreamSpec>& specs, SpanLog* spans, Ledger& L,
                 Report& report) {
  awd::StepRecord rec;
  awd::StepRecord twin_rec;
  awd::detect::AdaptiveDecision ad;
  awd::detect::WindowDecision fd;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const awd::serve::StreamSpec& spec = specs[s];
    const awd::SimulatorCase& c = spec.scase;
    awd::Result<awd::DetectionSystem> made =
        awd::DetectionSystem::create(c, spec.attack, spec.seed);
    report.op(made.is_ok(), "create ledger twin");
    if (!made.is_ok()) return false;
    awd::DetectionSystem twin = std::move(made).value();

    // The six layers, wired as DetectionSystem wires them (no fault plan,
    // default health thresholds, the twin's deadline backend).
    awd::sim::Simulator sim = build_simulator(spec);
    awd::detect::DataLogger logger(c.model, c.max_window);
    const awd::Backend& backend = twin.estimator();
    awd::detect::AdaptiveDetector adaptive(c.tau, c.max_window);
    awd::detect::FixedWindowDetector fixed(c.tau, c.fixed_window);
    awd::fault::HealthMonitor health;
    std::size_t last_valid_deadline = c.max_window;
    std::size_t fallback_steps = 0;
    std::uint64_t evaluations = 0;
    Ledger::Census& by_attack =
        L.census_by_attack[std::string(awd::core::to_string(spec.attack))];

    for (std::size_t k = 0; k < c.steps; ++k) {
      const std::uint64_t core_a0 = thread_allocations();
      const std::uint64_t u0 = now_ns();
      twin.step_into(twin_rec);
      const std::uint64_t u1 = now_ns();
      const std::uint64_t core_allocs = thread_allocations() - core_a0;

      const std::uint64_t sim_a0 = thread_allocations();
      const std::uint64_t p0 = now_ns();
      sim.step_into(rec);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t sim_allocs = thread_allocations() - sim_a0;
      rec.deadline_fallback = false;

      const awd::Vec& u_pred = c.predict_with_commanded ? rec.commanded : rec.control;
      std::uint64_t a[5] = {thread_allocations(), 0, 0, 0, 0};  // per-layer census
      const awd::Status logged = logger.log_checked(rec.t, rec.estimate, u_pred);
      const std::uint64_t t2 = now_ns();
      a[0] = thread_allocations() - a[0];
      if (!logged.is_ok()) {
        report.op(false, "logger rejected step " + std::to_string(rec.t));
        return false;
      }
      rec.residual_quarantined = logger.entry(rec.t).quarantined;

      std::size_t deadline = c.max_window;
      bool deadline_failed = false;
      std::uint64_t t3 = 0;
      std::uint64_t t4 = 0;
      const awd::Vec* seed = logger.trusted_state_view(rec.t, adaptive.previous_window());
      if (seed != nullptr) {
        a[1] = thread_allocations();
        t3 = now_ns();
        const awd::Result<std::size_t> est = backend.estimate_checked(*seed);
        t4 = now_ns();
        a[1] = thread_allocations() - a[1];
        if (est.is_ok()) {
          deadline = est.value();
        } else {
          deadline_failed = true;
        }
      }
      if (deadline_failed) {
        ++fallback_steps;
        deadline =
            last_valid_deadline > fallback_steps ? last_valid_deadline - fallback_steps : 1;
        rec.deadline_fallback = true;
      } else {
        last_valid_deadline = deadline;
        fallback_steps = 0;
      }
      rec.deadline = deadline;

      const std::size_t previous_window = adaptive.previous_window();
      a[2] = thread_allocations();
      const std::uint64_t t5 = now_ns();
      adaptive.step_into(logger, rec.t, deadline, ad);
      const std::uint64_t t6 = now_ns();
      a[2] = thread_allocations() - a[2];
      evaluations += ad.evaluations;
      rec.window = ad.window;
      rec.adaptive_alarm = ad.any_alarm();
      rec.residual_norm = logger.entry(rec.t).residual.norm_inf();
      rec.detect_stat = 0.0;
      for (std::size_t d = 0; d < ad.mean_residual.size(); ++d) {
        const double ratio = ad.mean_residual[d] / c.tau[d];
        if (ratio > rec.detect_stat) rec.detect_stat = ratio;
      }

      a[3] = thread_allocations();
      const std::uint64_t t7 = now_ns();
      fixed.step_into(logger, rec.t, fd);
      const std::uint64_t t8 = now_ns();
      a[3] = thread_allocations() - a[3];
      rec.fixed_alarm = fd.alarm;
      rec.unsafe = !c.safe_set.contains(rec.true_state);
      const bool degraded = rec.estimate_fallback || rec.residual_quarantined ||
                            rec.deadline_fallback || rec.sample_missing;
      a[4] = thread_allocations();
      const std::uint64_t t9 = now_ns();
      rec.health = health.step(rec.fault, degraded);
      const std::uint64_t p1 = now_ns();
      a[4] = thread_allocations() - a[4];

      if (!same_record(rec, twin_rec)) {
        report.op(false, "recomposed step differs from DetectionSystem::step_into: " + c.key +
                             "/" + std::string(awd::core::to_string(spec.attack)) +
                             " t=" + std::to_string(rec.t));
        return false;
      }

      // Ledger bookkeeping (outside every span).
      const std::uint64_t child[6] = {t1 - p0, t2 - t1, t4 - t3, t6 - t5, t8 - t7, p1 - t9};
      static constexpr const char* kNames[6] = {"sim.step_into",
                                                "detect.logger.log_checked",
                                                "reach.estimate_checked",
                                                "detect.adaptive.step_into",
                                                "detect.fixed.step_into",
                                                "fault.health.step"};
      L.sim.add(child[0]);
      L.logger.add(child[1]);
      if (t3 != 0) L.reach.add(child[2]);
      L.adaptive.add(child[3]);
      L.fixed.add(child[4]);
      L.health.add(child[5]);
      L.traced.add(p1 - p0);
      L.untraced.add(u1 - u0);
      std::uint64_t covered = 0;
      std::size_t top = 0;
      for (std::size_t i = 0; i < 6; ++i) {
        covered += child[i];
        if (child[i] > child[top]) top = i;
      }
      L.unexplained_ns += static_cast<double>(p1 - p0) - static_cast<double>(covered);
      if (p1 - p0 > L.slowest_ns) {
        L.slowest_ns = p1 - p0;
        L.slowest_where = c.key + "/" + std::string(awd::core::to_string(spec.attack)) +
                          " t=" + std::to_string(rec.t) + ", dominated by " + kNames[top] +
                          " (" + std::to_string(child[top]) + " ns)";
      }
      if (spans != nullptr && L.steps < kLedgerSpanSteps) {
        const std::uint32_t parent = spans->add("core.step", p0, p1, 0, s, rec.t);
        spans->add(kNames[0], p0, t1, parent, s, rec.t);
        spans->add(kNames[1], t1, t2, parent, s, rec.t);
        if (t3 != 0) spans->add(kNames[2], t3, t4, parent, s, rec.t);
        spans->add(kNames[3], t5, t6, parent, s, rec.t);
        spans->add(kNames[4], t7, t8, parent, s, rec.t);
        spans->add(kNames[5], t9, p1, parent, s, rec.t);
      }
      ++L.steps;
      L.deadline_sum += deadline;
      if (rec.deadline_fallback) ++L.fallbacks;
      if (k > 0 && ad.window < previous_window) ++L.shrinks;
      // Steady state only: the first w_m + 2 steps fill the logger ring and
      // size every scratch buffer once.
      if (k >= c.max_window + 2) {
        ++L.census_steps;
        L.sim_allocs += sim_allocs;
        L.core_allocs += core_allocs;
        by_attack.sim_allocs += sim_allocs;
        by_attack.core_allocs += core_allocs;
        for (std::size_t i = 0; i < 5; ++i) by_attack.layer_allocs[i] += a[i];
        ++by_attack.steps;
      }
    }
    L.evaluations += evaluations;
    if (evaluations != twin.adaptive_evaluations()) {
      report.op(false, "recomposed window-test count differs from the twin's");
      return false;
    }
  }
  return true;
}

/// Serialized per-stream state growth per 1000 steps, averaged over specs.
double checkpoint_growth_per_kstep(const std::vector<awd::serve::StreamSpec>& specs,
                                   Report& report) {
  awd::StepRecord rec;
  double growth = 0.0;
  for (const awd::serve::StreamSpec& spec : specs) {
    awd::Result<awd::DetectionSystem> made =
        awd::DetectionSystem::create(spec.scase, spec.attack, spec.seed);
    report.op(made.is_ok(), "create growth system");
    if (!made.is_ok()) return 0.0;
    awd::DetectionSystem system = std::move(made).value();
    std::size_t sizes[2] = {0, 0};
    std::size_t step = 0;
    for (int i = 0; i < 2; ++i) {
      for (; step < (i == 0 ? kGrowthFrom : kGrowthTo); ++step) system.step_into(rec);
      awd::core::ckpt::Writer writer;
      system.serialize(writer);
      sizes[i] = writer.size();
    }
    growth += static_cast<double>(sizes[1]) - static_cast<double>(sizes[0]);
  }
  return growth / static_cast<double>(specs.size()) * 1000.0 /
         static_cast<double>(kGrowthTo - kGrowthFrom);
}

/// Throughput and dump totals of one engine variant over its segments.
struct Segment {
  std::uint64_t steps = 0;
  double wall_s = 0.0;
  std::uint64_t dumps = 0;

  void add(const Segment& o) {
    steps += o.steps;
    wall_s += o.wall_s;
    dumps += o.dumps;
  }
  [[nodiscard]] double steps_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(steps) / wall_s : 0.0;
  }
};

/// Run one engine segment; with `restore_spans`, finish it with a traced
/// checkpoint of the live engine and a restore of that image into a fresh
/// engine.
Segment run_segment(const EngineLoopConfig& cfg, Report& report, SpanLog* restore_spans) {
  EngineLoopResult r = run_engine_loop(cfg, report);
  if (restore_spans != nullptr) {
    const std::uint64_t c0 = now_ns();
    awd::Result<std::vector<std::uint8_t>> image = r.engine->checkpoint();
    restore_spans->add("serve.checkpoint", c0, now_ns(), 0, 0, r.ticks);
    report.op(image.is_ok(), "final checkpoint");
    if (image.is_ok()) {
      const std::uint64_t s0 = now_ns();
      awd::StreamEngine fresh(r.options);
      const awd::Status s = fresh.restore(image.value());
      restore_spans->add("serve.restore", s0, now_ns(), 0, 0, r.ticks);
      report.op(s.is_ok(), "restore final image");
    }
  }
  return Segment{r.stream_steps, r.wall_s, r.dumps_written};
}

}  // namespace

void run_traced(const Args& args, Workload w, Report& report) {
  SpanLog spans(kSpanCap);
  const std::size_t combos = combo_count(w);
  std::vector<awd::serve::StreamSpec> specs;
  for (std::size_t i = 0; i < combos; ++i) specs.push_back(make_spec(w, args.seed, i));

  // 1. Layer ledger: pass 1 gives the exact counts (and the spans); the
  //    timing comes from later passes, and each of them must repeat pass
  //    1's counts bit for bit.  A discarded warm-up pass runs first.
  Ledger warm_up;  // process-wide lazy set-up (obs registries) allocates once
  if (!ledger_pass(specs, nullptr, warm_up, report)) return;
  Ledger first;
  if (!ledger_pass(specs, &spans, first, report)) return;
  Ledger L;
  const double ledger_budget = std::max(0.5, args.seconds * 0.25);
  const std::uint64_t ledger_start = now_ns();
  do {
    Ledger again;
    if (!ledger_pass(specs, nullptr, again, report)) return;
    report.op(again.same_counts(first), "ledger work counts repeat bit for bit");
    L.merge_timing(again);
  } while (seconds_since(ledger_start) < ledger_budget);

  // 2. Checkpoint growth of the workload's streams.
  const double growth = checkpoint_growth_per_kstep(specs, report);

  // 3. Engine attribution.  Every segment runs the same loop and differs
  //    only in the knob under test; the traced segment adds spans.  After
  //    one discarded warm-up segment the variants run forward and then in
  //    reverse, so drift on a shared host cancels to first order.
  EngineLoopConfig base = engine_config(w, args.seed);
  base.seconds = std::max(0.25, args.seconds / 12.0);
  base.min_ticks = shortest_stream(w) + 1;  // at least one drain wave
  base.introspect_every = 25;
  enum Variant { kDefault, kFullWidth, kNoRecorder, kNoObs, kTraced, kVariants };
  const std::size_t full_width = std::max(1u, std::thread::hardware_concurrency());
  Segment seg[kVariants];
  (void)run_segment(base, report, nullptr);  // warm-up: first-touch of engine memory
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kVariants; ++i) {
      const int v = pass == 0 ? i : kVariants - 1 - i;
      EngineLoopConfig cfg = base;
      if (v == kFullWidth) cfg.threads = full_width;
      if (v == kNoRecorder) cfg.recorder_depth = 0;
      if (v == kTraced) cfg.spans = &spans;
      const bool obs_was = awd::obs::enabled();
      if (v == kNoObs) awd::obs::set_enabled(false);
      seg[v].add(run_segment(cfg, report, v == kTraced && pass == 1 ? &spans : nullptr));
      awd::obs::set_enabled(obs_was);
    }
  }

  // Per-layer figures.
  const double sps_default = seg[kDefault].steps_per_s();
  Report::note("engine segments, stream-steps/s: default " + std::to_string(sps_default) +
               ", " + std::to_string(full_width) + " threads " +
               std::to_string(seg[kFullWidth].steps_per_s()) +
               ", recorder depth 0 " + std::to_string(seg[kNoRecorder].steps_per_s()) +
               ", obs off " + std::to_string(seg[kNoObs].steps_per_s()) + ", traced " +
               std::to_string(seg[kTraced].steps_per_s()));
  const double census = static_cast<double>(std::max<std::uint64_t>(first.census_steps, 1));
  const double steps1 = static_cast<double>(std::max<std::uint64_t>(first.steps, 1));
  const double traced_mean = L.traced.mean();
  const double untraced_mean = L.untraced.mean();
  Report::note("ledger: " + std::to_string(first.steps) + " steps per pass, slowest step " +
               std::to_string(L.slowest_ns) + " ns at " + L.slowest_where);
  for (const auto& [attack, c] : first.census_by_attack) {
    const double n = static_cast<double>(std::max<std::uint64_t>(c.steps, 1));
    Report::note("allocations per step, " + attack + ": sim " +
                 std::to_string(static_cast<double>(c.sim_allocs) / n) + ", logger " +
                 std::to_string(static_cast<double>(c.layer_allocs[0]) / n) + ", reach " +
                 std::to_string(static_cast<double>(c.layer_allocs[1]) / n) + ", adaptive " +
                 std::to_string(static_cast<double>(c.layer_allocs[2]) / n) + ", fixed " +
                 std::to_string(static_cast<double>(c.layer_allocs[3]) / n) + ", health " +
                 std::to_string(static_cast<double>(c.layer_allocs[4]) / n) +
                 ", DetectionSystem::step_into " +
                 std::to_string(static_cast<double>(c.core_allocs) / n));
  }
  report.metric("sim.step_ns_mean", L.sim.mean(), "ns");
  report.metric("sim.step_ns_p99", L.sim.quantile(0.99), "ns");
  report.metric("sim.allocs_per_step", static_cast<double>(first.sim_allocs) / census,
                "count");
  report.metric("detect.logger_ns_mean", L.logger.mean(), "ns");
  report.metric("reach.estimate_ns_mean", L.reach.mean(), "ns");
  report.metric("reach.estimate_ns_p99", L.reach.quantile(0.99), "ns");
  report.metric("reach.deadline_mean", static_cast<double>(first.deadline_sum) / steps1,
                "steps");
  report.metric("reach.fallback_frac", static_cast<double>(first.fallbacks) / steps1, "frac");
  report.metric("detect.adaptive_ns_mean", L.adaptive.mean(), "ns");
  report.metric("detect.adaptive_ns_p99", L.adaptive.quantile(0.99), "ns");
  report.metric("detect.evals_per_step", static_cast<double>(first.evaluations) / steps1,
                "count");
  report.metric("detect.shrink_frac", static_cast<double>(first.shrinks) / steps1, "frac");
  report.metric("detect.fixed_ns_mean", L.fixed.mean(), "ns");
  report.metric("fault.health_ns_mean", L.health.mean(), "ns");
  report.metric("core.step_ns_mean", untraced_mean, "ns");
  report.metric("core.step_ns_p50", L.untraced.quantile(0.50), "ns");
  report.metric("core.step_ns_p99", L.untraced.quantile(0.99), "ns");
  report.metric("core.unexplained_frac",
                L.unexplained_ns / static_cast<double>(L.steps) / traced_mean, "frac");
  report.metric("core.ledger_gap_frac", traced_mean / untraced_mean - 1.0, "frac");
  report.metric("core.allocs_per_step", static_cast<double>(first.core_allocs) / census,
                "count");
  report.metric("serve.parallel_efficiency",
                seg[kFullWidth].steps_per_s() /
                    (static_cast<double>(full_width) * sps_default),
                "frac");
  report.metric("serve.submit_us_mean", spans.mean_us("serve.submit"), "us");
  report.metric("serve.drain_us_mean", spans.mean_us("serve.drain"), "us");
  report.metric("serve.introspect_us", spans.mean_us("serve.introspect"), "us");
  report.metric("obs.recorder_cost_frac", 1.0 - sps_default / seg[kNoRecorder].steps_per_s(),
                "frac");
  report.metric("obs.metrics_cost_frac", 1.0 - sps_default / seg[kNoObs].steps_per_s(),
                "frac");
  report.metric("obs.dumps_per_kstep",
                static_cast<double>(seg[kDefault].dumps) * 1000.0 /
                    static_cast<double>(std::max<std::uint64_t>(seg[kDefault].steps, 1)),
                "count");
  report.metric("ckpt.bytes_growth_per_kstep", growth, "bytes");
  // single_loop's traced form is the recomposed step against the untraced
  // system; the engine workloads compare the traced loop against the
  // default one.
  report.metric("trace.overhead_frac",
                w == Workload::kSingleLoop ? 1.0 - untraced_mean / traced_mean
                                           : 1.0 - seg[kTraced].steps_per_s() / sps_default,
                "frac");

  const std::string path = args.out_dir + "/trace-" + workload_name(w) + "-" +
                           std::to_string(args.seed) + ".jsonl";
  report.op(spans.write_jsonl(path, fingerprint_json(args), workload_name(w)),
            "write span file " + path);
  Report::note("spans: " + std::to_string(spans.spans().size()) + " kept, " +
               std::to_string(spans.dropped()) + " dropped, written to " + path);
}

}  // namespace perfbench
