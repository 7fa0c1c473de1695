// fleet and long_horizon — StreamEngine workloads.
//
//   fleet         1024 short mixed streams with the shipped defaults
//                 (recorder and obs on): loads serve and obs.
//   long_horizon  256 streams of 2000 ticks at evenly spread ages, mostly
//                 history-reading attacks, with periodic checkpoint() beside
//                 the stepping: loads the sim attack history and the ckpt
//                 codec.
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

/// Record a root span when the loop is traced (the log's cap bounds the
/// traced run's memory however fast the engine goes).
void span(SpanLog* spans, const char* name, std::uint64_t start, std::uint64_t end,
          std::uint64_t stream, std::uint64_t t) {
  if (spans != nullptr) spans->add(name, start, end, 0, stream, t);
}

}  // namespace

EngineLoopResult run_engine_loop(const EngineLoopConfig& cfg, Report& report) {
  EngineLoopResult out;
  out.options.threads = cfg.threads;
  out.options.flight_recorder_depth = cfg.recorder_depth;
  const std::size_t quality_n = quality_set_size(cfg.workload);
  const std::size_t first_admission =
      cfg.ramp_per_tick == 0 ? cfg.population : cfg.ramp_per_tick;

  // Finish tick → streams due to be drained then.  A stream submitted after
  // tick T with L steps steps on ticks T+1..T+L.
  std::map<std::uint64_t, std::vector<awd::StreamId>> due;
  std::size_t next_index = 0;
  std::uint64_t tick = 0;
  auto submit_next = [&]() {
    const awd::serve::StreamSpec spec = make_spec(cfg.workload, cfg.seed, next_index);
    const std::size_t steps = spec.scase.steps;
    const std::uint64_t t0 = now_ns();
    awd::Result<awd::StreamId> id = out.engine->submit(spec);
    span(cfg.spans, "serve.submit", t0, now_ns(), next_index, tick);
    report.op(id.is_ok(), "submit stream " + std::to_string(next_index));
    if (id.is_ok()) {
      out.index_of[id.value()] = next_index;
      due[tick + steps].push_back(id.value());
    }
    ++next_index;
  };

  // Set-up: engine construction plus the first admission, which builds the
  // per-family deadline backends.  The running engine's is the first rep;
  // the others, spread through the timed part, build throwaway engines.
  const std::uint64_t start = now_ns();
  out.engine = std::make_unique<awd::StreamEngine>(out.options);
  for (std::size_t i = 0; i < first_admission; ++i) submit_next();
  out.setup_s.push_back(seconds_since(start));
  auto setup_rep = [&]() {
    const std::uint64_t s0 = now_ns();
    awd::StreamEngine fresh(out.options);
    bool ok = true;
    for (std::size_t i = 0; i < first_admission; ++i) {
      ok = fresh.submit(make_spec(cfg.workload, cfg.seed, i)).is_ok() && ok;
    }
    out.setup_s.push_back(seconds_since(s0));
    report.op(ok, "set-up rep");
  };
  auto restore_rep = [&]() {
    const std::uint64_t r0 = now_ns();
    awd::StreamEngine fresh(out.options);
    const awd::Status s = fresh.restore(out.probe_image);
    out.restore_s.push_back(seconds_since(r0));
    report.op(s.is_ok(), "restore probe image");
  };
  auto checkpoint = [&]() {
    const std::uint64_t c0 = now_ns();
    awd::Result<std::vector<std::uint8_t>> image = out.engine->checkpoint();
    const std::uint64_t c1 = now_ns();
    span(cfg.spans, "serve.checkpoint", c0, c1, 0, tick);
    report.op(image.is_ok(), "checkpoint at tick " + std::to_string(tick));
    out.ckpt_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    return image;
  };
  awd::StreamEngine& engine = *out.engine;
  const double shards = static_cast<double>(engine.shards());

  std::optional<CoreHopper> hopper;
  if (cfg.hop_cores) hopper.emplace();
  std::unordered_set<awd::StreamId> probe_set;
  std::size_t quality_drained = 0;
  std::uint64_t loop_start = now_ns();
  std::uint64_t window_start = loop_start;
  std::uint64_t window_steps = 0;
  for (;;) {
    // Ramp-up: the rest of the initial population, a few streams per ramp
    // step (replacements start only once the first streams finish).
    if (tick > 0 && tick % cfg.ramp_every == 0) {
      for (std::size_t i = 0; i < cfg.ramp_per_tick && next_index < cfg.population; ++i) {
        submit_next();
      }
    }
    const bool timed = tick >= cfg.warmup_ticks;
    if (tick == cfg.warmup_ticks) loop_start = window_start = now_ns();
    const std::uint64_t t0 = now_ns();
    const std::size_t stepped = engine.step_all();
    const std::uint64_t t1 = now_ns();
    ++tick;
    span(cfg.spans, "serve.step_all", t0, t1, stepped, tick);
    if (timed) {
      const double tick_ms = static_cast<double>(t1 - t0) * 1e-6;
      out.tick_ms.push_back(tick_ms);
      out.windows.add(EngineLoopResult::kTickMs, tick_ms);
      if (stepped > 0) {
        out.windows.add(EngineLoopResult::kStepUs,
                        tick_ms * 1e3 * shards / static_cast<double>(stepped));
      }
      out.stream_steps += stepped;
      window_steps += stepped;
    }

    if (auto it = due.find(tick); it != due.end()) {
      const std::vector<awd::StreamId> ids = std::move(it->second);
      due.erase(it);
      for (const awd::StreamId id : ids) {
        const std::uint64_t d0 = now_ns();
        awd::Result<awd::StreamResult> r = engine.drain(id);
        span(cfg.spans, "serve.drain", d0, now_ns(), id, tick);
        report.op(r.is_ok() && r.value().status.is_ok(),
                  "drain stream " + std::to_string(id) + " at tick " + std::to_string(tick));
        if (!r.is_ok()) continue;
        const std::size_t index = out.index_of[id];
        if (index < quality_n) {
          out.quality.add(make_spec(cfg.workload, cfg.seed, index), r.value().adaptive);
          ++quality_drained;
        }
        if (index < quality_n || probe_set.count(id) != 0) out.results[id] = r.value();
        submit_next();
      }
    }

    if (cfg.probe_tick != 0 && tick == cfg.probe_tick) {
      awd::Result<std::vector<std::uint8_t>> image = checkpoint();
      if (image.is_ok()) out.probe_image = std::move(image).value();
      out.checkpoint_streams = engine.snapshot().running;
      for (const auto& [finish, ids] : due) {
        for (const awd::StreamId id : ids) {
          out.probe_ids.push_back(id);
          probe_set.insert(id);
        }
      }
    }

    if (cfg.introspect_every != 0 && tick % cfg.introspect_every == 0) {
      const std::uint64_t i0 = now_ns();
      const awd::EngineIntrospection intro = engine.introspect();
      span(cfg.spans, "serve.introspect", i0, now_ns(), intro.counters.running, tick);
    }

    // Between windows: close the window, then take the periodic checkpoint
    // and the spread reps, outside any window's time.
    const std::uint64_t timed_ticks = tick - cfg.warmup_ticks;
    if (timed && timed_ticks % cfg.window_ticks == 0) {
      const double window_rate = out.windows.close(window_steps, seconds_since(window_start));
      if (hopper) hopper->window(window_rate);
      window_steps = 0;
      if (cfg.ckpt_every != 0 && timed_ticks % cfg.ckpt_every == 0) (void)checkpoint();
      if (cfg.rep_every != 0 && out.windows.size() % cfg.rep_every == 0) {
        if (out.peak_rss_mb == 0.0) out.peak_rss_mb = peak_rss_mb();
        setup_rep();
        if (!out.probe_image.empty()) restore_rep();
      }
      window_start = now_ns();
    }

    if (timed && seconds_since(loop_start) >= cfg.seconds && tick >= cfg.min_ticks &&
        (!cfg.require_quality || quality_drained >= quality_n)) {
      break;
    }
  }
  out.wall_s = seconds_since(loop_start);
  out.ticks = tick;
  if (out.peak_rss_mb == 0.0) out.peak_rss_mb = peak_rss_mb();
  out.dumps_written = engine.introspect().dumps_written;
  out.core_hops = hopper ? hopper->hops() : 0;
  return out;
}

EngineLoopConfig engine_config(Workload w, std::uint64_t seed) {
  EngineLoopConfig cfg;
  cfg.workload = w;
  cfg.seed = seed;
  // One shard: the timed engine runs are serial.  A tick waits for its
  // slowest shard, and on a shared host every neighbour's burst on any vCPU
  // becomes a straggler, so at two or four threads the tick times spread
  // 20-40 % from run to run, beyond any usable bound.  The traced run
  // measures the full-width pool (serve.parallel_efficiency).
  cfg.threads = 1;
  // Streams enter a few at a time, one of every plant family per ramp step.
  // Admitted in lockstep, every attack (and with it every alarm dump) would
  // land on the same ticks, and stream ages would rise and fall together;
  // ramped, the population's mix is the same in every window of the timed
  // part, so the windows are comparable.
  cfg.ramp_per_tick = 5;
  if (w == Workload::kLongHorizon) {
    // 5 streams every 40 ticks spreads the 2000-tick streams' ages evenly;
    // each 40-tick window then drains and replaces one group.
    cfg.population = 256;
    cfg.ramp_every = 40;
    cfg.window_ticks = 40;
    cfg.ckpt_every = 400;
  } else {
    cfg.population = w == Workload::kFleet ? 1024 : 256;
    cfg.window_ticks = 25;
  }
  return cfg;
}

void run_engine_workload(const Args& args, Workload w, Report& report) {
  EngineLoopConfig cfg = engine_config(w, args.seed);
  cfg.seconds = args.seconds;
  cfg.require_quality = true;
  cfg.hop_cores = true;
  std::size_t max_len = 0;
  if (w == Workload::kFleet) {
    // Timing starts once every first-wave slot has turned over.
    cfg.warmup_ticks = 600;
    cfg.ckpt_every = 200;
    cfg.rep_every = 10;
    max_len = 500;
  } else {
    // Timing starts once the ramp is done and the ages are spread.
    cfg.warmup_ticks = 2040;
    cfg.rep_every = 30;
    max_len = 2000;
  }
  cfg.probe_tick = cfg.warmup_ticks;
  cfg.min_ticks = cfg.probe_tick + max_len;  // every imaged stream finishes in the loop
  EngineLoopResult run = run_engine_loop(cfg, report);

  // Correctness 1: sampled quality-set streams drain to metrics bitwise equal
  // to the standalone experiment path on the same spec.
  const std::size_t quality_n = quality_set_size(w);
  const std::size_t stride = (quality_n + 31) / 32;  // exactly 32 sampled indexes
  std::size_t sampled = 0;
  for (const auto& [id, result] : run.results) {
    const std::size_t index = run.index_of[id];
    if (index >= quality_n || index % stride != 0) continue;
    const awd::serve::StreamSpec spec = make_spec(w, args.seed, index);
    const awd::CellRunOutcome o =
        awd::run_cell_once(spec.scase, spec.attack, spec.seed, spec.metrics);
    report.op(same_metrics(o.adaptive, result.adaptive) && same_metrics(o.fixed, result.fixed),
              "stream " + std::to_string(id) + " vs run_cell_once");
    ++sampled;
  }
  report.op(sampled == 32, "run_cell_once sample covers 32 streams");

  // Correctness 2: the probe image restored into a fresh engine continues
  // bitwise identical to the uninterrupted engine.  This restore is timed
  // too, so every run has at least one.
  const std::uint64_t t0 = now_ns();
  auto restored = std::make_unique<awd::StreamEngine>(run.options);
  const awd::Status s = restored->restore(run.probe_image);
  run.restore_s.push_back(seconds_since(t0));
  report.op(s.is_ok(), "restore probe image");
  if (!s.is_ok()) return;
  restored->run_to_completion();
  for (const awd::StreamId id : run.probe_ids) {
    awd::Result<awd::StreamResult> r = restored->drain(id);
    const auto original = run.results.find(id);
    report.op(r.is_ok() && original != run.results.end() &&
                  same_result(r.value(), original->second),
              "restored stream " + std::to_string(id) + " continues bitwise");
  }
  restored.reset();

  const Windows::Quiet q = run.windows.quiet();
  Report::note(std::string(workload_name(w)) + ": " + std::to_string(run.ticks) + " ticks, " +
               std::to_string(run.stream_steps) + " stream-steps, " +
               std::to_string(run.engine->shards()) + " shards, " +
               std::to_string(run.probe_image.size()) + " probe-image bytes, " +
               std::to_string(run.dumps_written) + " dumps; timings from " +
               std::to_string(q.windows) + " quiet of " + std::to_string(run.windows.size()) +
               " windows, " + std::to_string(run.setup_s.size()) + " set-ups, " +
               std::to_string(run.ckpt_ms.size()) + " checkpoints, " +
               std::to_string(run.restore_s.size()) + " restores, " +
               std::to_string(run.core_hops) + " vCPU moves");
  Report::note("tails over all " + std::to_string(run.tick_ms.size()) + " timed ticks: tick_ms p50 " +
               std::to_string(quantile(run.tick_ms, 0.50)) + ", p99 " +
               std::to_string(quantile(run.tick_ms, 0.99)) + ", max " +
               std::to_string(quantile(run.tick_ms, 1.0)));
  report.metric("steps_per_s", q.steps_per_s, "1/s");
  report.metric("step_us_p50", q.p50[EngineLoopResult::kStepUs], "us");
  report.metric("step_us_p90", q.p90[EngineLoopResult::kStepUs], "us");
  report.metric("tick_ms_p50", q.p50[EngineLoopResult::kTickMs], "ms");
  report.metric("tick_ms_p90", q.p90[EngineLoopResult::kTickMs], "ms");
  report.metric("setup_s", median(run.setup_s), "s");
  report.metric("peak_rss_mb", run.peak_rss_mb, "MB");
  report.metric("ckpt_pause_ms", quiet(run.ckpt_ms), "ms");
  report.metric("ckpt_bytes_per_stream",
                static_cast<double>(run.probe_image.size()) /
                    static_cast<double>(std::max<std::size_t>(run.checkpoint_streams, 1)),
                "bytes");
  report.metric("restore_s", quiet(run.restore_s), "s");
  report.metric("false_alarm_rate", run.quality.false_alarm_rate(), "frac");
  report.metric("deadline_miss_frac", run.quality.deadline_miss_frac(), "frac");
  report.metric("detect_delay_steps", run.quality.detect_delay_steps(), "steps");
}

}  // namespace perfbench
