// single_loop — one DetectionSystem at a time, stepped back to back in a
// closed loop: the paper's frame-to-verdict latency per control period.
// sim, detect and reach do all the work; the engine does none.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupEvery = 8;  ///< loop windows between set-up reps
constexpr std::size_t kCkptReps = 31;
constexpr std::size_t kCkptAtStep = 200;  ///< checkpoint taken mid-run
constexpr std::size_t kCkptEvery = 25;    ///< loop windows between checkpoint reps
constexpr std::size_t kSampleStride = 100;  ///< every 100th episode is re-run standalone

awd::DetectionSystemOptions shared(std::shared_ptr<const awd::Backend> backend) {
  awd::DetectionSystemOptions options;
  options.shared_deadline_estimator = std::move(backend);
  return options;
}

}  // namespace

void run_single_loop(const Args& args, Report& report) {
  const Workload w = Workload::kSingleLoop;
  const std::size_t combos = combo_count(w);

  // Set-up: a user's standalone system builds its own deadline backend, so
  // each rep constructs every combination from scratch.  The first rep's
  // backends are shared by the loop; later reps are spread through it.
  std::vector<double> setup_s;
  std::vector<std::shared_ptr<const awd::Backend>> backends(combos);
  auto setup_rep = [&]() -> bool {
    std::vector<awd::DetectionSystem> systems;
    systems.reserve(combos);
    const std::uint64_t start = now_ns();
    for (std::size_t c = 0; c < combos; ++c) {
      const awd::serve::StreamSpec spec = make_spec(w, args.seed, c);
      awd::Result<awd::DetectionSystem> r =
          awd::DetectionSystem::create(spec.scase, spec.attack, spec.seed);
      report.op(r.is_ok(), "create " + spec.scase.key);
      if (!r.is_ok()) return false;
      systems.push_back(std::move(r).value());
    }
    setup_s.push_back(seconds_since(start));
    if (backends[0] == nullptr) {
      for (std::size_t c = 0; c < combos; ++c) backends[c] = systems[c].estimator_handle();
    }
    return true;
  };
  if (!setup_rep()) return;

  // Checkpoint cost of the loop's state: every combination mid-run, encoded
  // through the ckpt codec as one image (one section per system) and
  // restored into fresh systems, which must then continue bitwise against
  // the originals.  The reps are spread through the timed loop, so they
  // sample the same host conditions as the steps (window time excludes
  // them), and the quiet tenth of them is reported (see Windows).
  awd::StepRecord rec;
  std::vector<awd::DetectionSystem> live;
  std::vector<awd::serve::StreamSpec> live_specs;
  for (std::size_t c = 0; c < combos; ++c) {
    live_specs.push_back(make_spec(w, args.seed ^ 0xC4EC, c));
    awd::Result<awd::DetectionSystem> r = awd::DetectionSystem::create(
        live_specs[c].scase, live_specs[c].attack, live_specs[c].seed, shared(backends[c]));
    report.op(r.is_ok(), "create checkpoint system");
    if (!r.is_ok()) return;
    live.push_back(std::move(r).value());
    for (std::size_t k = 0; k < kCkptAtStep; ++k) live[c].step_into(rec);
  }
  std::vector<double> pause_ms;
  std::vector<double> restore_s;
  std::vector<std::uint8_t> image;
  std::vector<awd::DetectionSystem> restored;
  auto checkpoint_rep = [&]() -> bool {
    const std::uint64_t t0 = now_ns();
    awd::core::ckpt::SnapshotBuilder builder;
    for (std::size_t c = 0; c < combos; ++c) {
      live[c].serialize(builder.section(static_cast<std::uint32_t>(c + 1)));
    }
    image = builder.finish(args.seed);
    pause_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);

    restored.clear();
    const std::uint64_t t1 = now_ns();
    awd::Result<awd::core::ckpt::SnapshotView> view =
        awd::core::ckpt::SnapshotView::parse(image);
    bool ok = view.is_ok();
    for (std::size_t c = 0; ok && c < combos; ++c) {
      awd::Result<awd::DetectionSystem> r =
          awd::DetectionSystem::create(live_specs[c].scase, live_specs[c].attack,
                                       live_specs[c].seed, shared(backends[c]));
      const auto* section = view.value().find(static_cast<std::uint32_t>(c + 1));
      ok = r.is_ok() && section != nullptr;
      if (!ok) break;
      restored.push_back(std::move(r).value());
      awd::core::ckpt::Reader reader = section->reader();
      ok = restored.back().deserialize(reader).is_ok();
    }
    restore_s.push_back(seconds_since(t1));
    report.op(ok, "restore single-loop image");
    return ok;
  };

  // Timed closed loop.  Episode e runs spec e to its configured length; the
  // first quality_set_size episodes define the quality metrics.
  struct Sample {
    awd::serve::StreamSpec spec;
    awd::RunMetrics adaptive;
    awd::RunMetrics fixed;
  };
  std::vector<Sample> samples;
  NsHistogram step_ns;  // every step, for the tail note
  Windows windows(1);   // one window = one episode per combination
  CoreHopper hopper;
  Quality quality;
  const std::size_t quality_n = quality_set_size(w);
  std::uint64_t steps = 0;
  std::size_t episode = 0;
  const std::uint64_t loop_start = now_ns();
  std::uint64_t window_start = loop_start;
  std::uint64_t window_steps = 0;
  while (episode < quality_n || seconds_since(loop_start) < args.seconds) {
    const awd::serve::StreamSpec spec = make_spec(w, args.seed, episode);
    awd::Result<awd::DetectionSystem> r = awd::DetectionSystem::create(
        spec.scase, spec.attack, spec.seed, shared(backends[episode % combos]));
    report.op(r.is_ok(), "create episode " + std::to_string(episode));
    if (!r.is_ok()) return;
    awd::DetectionSystem system = std::move(r).value();
    awd::StreamingMetrics scoring(spec.scase.attack_start, spec.scase.attack_duration,
                                  spec.metrics);
    for (std::size_t k = 0; k < spec.scase.steps; ++k) {
      const std::uint64_t t0 = now_ns();
      system.step_into(rec);
      const std::uint64_t ns = now_ns() - t0;
      step_ns.add(ns);
      windows.add(0, static_cast<double>(ns) * 1e-3);
      scoring.observe(rec);
    }
    steps += spec.scase.steps;
    window_steps += spec.scase.steps;
    if ((episode + 1) % combos == 0) {
      hopper.window(windows.close(window_steps, seconds_since(window_start)));
      if (windows.size() % kCkptEvery == 0 && pause_ms.size() < kCkptReps &&
          !checkpoint_rep()) {
        return;
      }
      if (windows.size() % kSetupEvery == 0 && !setup_rep()) return;
      window_start = now_ns();
      window_steps = 0;
    }
    if (episode < quality_n) {
      const awd::RunMetrics adaptive = scoring.finish(awd::Strategy::kAdaptive);
      quality.add(spec, adaptive);
      if (episode % kSampleStride == 0) {
        samples.push_back({spec, adaptive, scoring.finish(awd::Strategy::kFixed)});
      }
    }
    ++episode;
  }

  // Correctness: sampled episodes re-run through the standalone experiment
  // path must score bit-identically.
  for (const Sample& s : samples) {
    const awd::CellRunOutcome o =
        awd::run_cell_once(s.spec.scase, s.spec.attack, s.spec.seed, s.spec.metrics);
    report.op(same_metrics(o.adaptive, s.adaptive) && same_metrics(o.fixed, s.fixed),
              "episode vs run_cell_once: " + s.spec.scase.key + "/" +
                  std::string(awd::core::to_string(s.spec.attack)));
  }

  while (pause_ms.size() < kCkptReps) {  // short runs: the reps the loop had no room for
    if (!checkpoint_rep()) return;
  }
  bool continued = true;
  awd::StepRecord rec_restored;
  for (std::size_t c = 0; c < combos; ++c) {
    for (std::size_t k = kCkptAtStep; k < live_specs[c].scase.steps; ++k) {
      live[c].step_into(rec);
      restored[c].step_into(rec_restored);
      continued = continued && same_record(rec, rec_restored);
    }
  }
  report.op(continued, "restored systems continue bitwise");

  const Windows::Quiet q = windows.quiet();
  Report::note("single_loop: " + std::to_string(episode) + " episodes, " + std::to_string(steps) +
               " steps; timings from " + std::to_string(q.windows) + " quiet of " +
               std::to_string(windows.size()) + " windows, " + std::to_string(setup_s.size()) +
               " set-ups, " + std::to_string(hopper.hops()) + " vCPU moves; over all steps: step p50 " +
               std::to_string(step_ns.quantile(0.50) * 1e-3) + " us, p99 " +
               std::to_string(step_ns.quantile(0.99) * 1e-3) + " us, max " +
               std::to_string(step_ns.max() * 1e-3) + " us");
  report.metric("steps_per_s", q.steps_per_s, "1/s");
  report.metric("step_us_p50", q.p50[0], "us");
  report.metric("step_us_p90", q.p90[0], "us");
  // A single-loop tick is one control period of its one stream.
  report.metric("tick_ms_p50", q.p50[0] * 1e-3, "ms");
  report.metric("tick_ms_p90", q.p90[0] * 1e-3, "ms");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("ckpt_pause_ms", quiet(pause_ms), "ms");
  report.metric("ckpt_bytes_per_stream",
                static_cast<double>(image.size()) / static_cast<double>(combos), "bytes");
  report.metric("restore_s", quiet(restore_s), "s");
  report.metric("false_alarm_rate", quality.false_alarm_rate(), "frac");
  report.metric("deadline_miss_frac", quality.deadline_miss_frac(), "frac");
  report.metric("detect_delay_steps", quality.detect_delay_steps(), "steps");
}

}  // namespace perfbench
