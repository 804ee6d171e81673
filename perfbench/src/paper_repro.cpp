// paper_repro — every paper scenario at its registry defaults, each on
// a fresh LainContext (cold characterization cache), the cost every
// lain_bench invocation pays.  One repetition is one full
// reproduction: all eight scenarios plus the companion sections they
// print in text mode.  Output check: the rendered output of every
// repetition is byte-identical to the first one's.

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"
#include "core/context.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/scenario_json.hpp"

namespace perfbench {

namespace {

using lain::core::LainContext;
using lain::core::ScenarioRegistry;
using lain::core::ScenarioSpec;

struct Planned {
  const lain::core::Scenario* scenario = nullptr;
  ScenarioSpec spec;
};

bool accepts(const lain::core::Scenario& sc, const std::string& flag) {
  return std::find(sc.value_flags.begin(), sc.value_flags.end(), flag) !=
         sc.value_flags.end();
}

// Registry defaults, plus the sweep lanes and — for the scenarios that
// simulate — the workload seed.
std::vector<Planned> plan(const Options& opt, int threads) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  std::vector<Planned> out;
  for (const std::string& name : paper_scenarios()) {
    lain::core::ScenarioJobSpec job;
    job.scenario = name;
    Planned p;
    p.scenario = reg.find(name);
    if (p.scenario == nullptr) {
      throw std::runtime_error("scenario not registered: " + name);
    }
    if (accepts(*p.scenario, "seed")) {
      job.values.emplace_back("seed", std::to_string(opt.seed));
    }
    p.spec = lain::core::build_scenario_spec(
        reg, job, {"--threads", std::to_string(threads)});
    out.push_back(std::move(p));
  }
  return out;
}

// Full-precision rendering of everything a scenario prints.
std::string render(const lain::core::ScenarioRun& r) {
  std::string out = r.preformatted;
  if (r.table) out += r.table->to_csv();
  if (r.extras) out += r.extras();
  return out;
}

struct Rep {
  std::string output;
  double seconds = 0.0;
  std::uint64_t lookups = 0, characterizations = 0;
};

Rep reproduce(const Options& opt, const std::vector<Planned>& plans,
              Tracer& tracer, std::int64_t id) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Span whole = tracer.span("core", "paper_repro.rep", id);
    LainContext ctx(lain::core::ContextOptions{opt.lanes});
    for (const Planned& p : plans) {
      Tracer::Span s =
          tracer.span("core", "scenario." + p.scenario->name, id);
      const lain::core::SweepEngine engine = ctx.make_engine(p.spec.threads);
      rep.output += "== " + p.scenario->name + "\n";
      rep.output += render(p.scenario->run(ctx, p.spec, engine));
    }
    rep.lookups = ctx.characterizations().lookups();
    rep.characterizations = ctx.characterizations().characterizations();
  }
  rep.seconds = seconds_since(t0);
  return rep;
}

// Counts the node-cycles every simulation of a reproduction steps:
// manifests give each run's fabric size, summaries its cycle count.
class NodeCycleSink final : public lain::telemetry::MetricsSink {
 public:
  void on_manifest(const lain::telemetry::RunManifest& m) override {
    const std::lock_guard<std::mutex> lock(mu_);
    nodes_[m.run] = static_cast<std::int64_t>(m.radix_x) * m.radix_y;
  }
  void on_summary(const lain::telemetry::RunSummary& s) override {
    const std::lock_guard<std::mutex> lock(mu_);
    total_ += nodes_[s.run] * static_cast<std::int64_t>(s.cycles);
  }
  std::int64_t total() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> nodes_;
  std::int64_t total_ = 0;
};

std::int64_t count_node_cycles(const Options& opt) {
  NodeCycleSink sink;
  LainContext ctx(lain::core::ContextOptions{opt.lanes});
  for (Planned& p : plan(opt, opt.lanes)) {
    p.spec.metrics = &sink;
    const lain::core::SweepEngine engine = ctx.make_engine(p.spec.threads);
    (void)p.scenario->run(ctx, p.spec, engine);
  }
  return sink.total();
}

// Repetitions until `seconds` have passed (at least three).  `between`
// runs after each repetition, outside its timing.
std::vector<Rep> timed_loop(const Options& opt,
                            const std::vector<Planned>& plans,
                            Tracer& tracer, double seconds,
                            std::int64_t first_id, Outcome& out,
                            std::string& reference,
                            const std::function<void()>& between) {
  std::vector<Rep> reps;
  const std::int64_t t0 = now_ns();
  while (reps.size() < 3 || seconds_since(t0) < seconds) {
    const std::int64_t id = first_id + static_cast<std::int64_t>(reps.size());
    ++out.attempted;
    try {
      Rep r = reproduce(opt, plans, tracer, id);
      if (reference.empty()) reference = r.output;
      if (r.output != reference) {
        out.fail("repetition " + std::to_string(id) +
                 ": scenario output differs from the first repetition");
      }
      reps.push_back(std::move(r));
    } catch (const std::exception& e) {
      out.fail("repetition " + std::to_string(id) + " threw: " + e.what());
      if (out.failed > 3) break;
    }
    if (between) between();
  }
  return reps;
}

std::vector<double> rep_seconds(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.seconds);
  return v;
}

}  // namespace

Outcome run_paper_repro(const Options& opt, Tracer& tracer) {
  Outcome out;

  // Set-up: registry lookups, spec building and the session context.
  // Sampled again between the repetitions, so its median sees the same
  // host conditions as theirs.
  std::vector<double> setups;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    std::vector<Planned> p = plan(opt, opt.lanes);
    const LainContext ctx(lain::core::ContextOptions{opt.lanes});
    setups.push_back(seconds_since(t0));
    return p;
  };
  const std::vector<Planned> plans = set_up();
  const auto sample_set_up = [&] {
    for (int i = 0; i < 5; ++i) (void)set_up();
  };
  for (int i = 0; i < 4; ++i) (void)set_up();

  const std::int64_t node_cycles = count_node_cycles(opt);

  std::string reference;
  Tracer untraced(false);
  const double loop_share = opt.trace ? kTracedLoopShare : 1.0;
  const std::vector<Rep> reps =
      timed_loop(opt, plans, untraced, opt.seconds * loop_share, 0, out,
                 reference, sample_set_up);
  const std::vector<double> secs = rep_seconds(reps);
  const double n = static_cast<double>(secs.size());
  // Every timing is taken per segment of the run and reported as the
  // median over the segments.
  const double med =
      segment_median(secs, kMedianSegment,
                     [](const std::vector<double>& v) { return median(v); });
  out.notes.push_back(distribution_note("repetition", secs));

  if (!opt.trace) {
    out.add("setup_s", "s", median(setups),
            static_cast<std::int64_t>(setups.size()));
    out.add("repro_s", "s", med, static_cast<std::int64_t>(n));
    out.add("sim_mnode_cycles_per_s", "Mnode-cycles/s",
            med > 0.0 ? static_cast<double>(node_cycles) / med * 1e-6 : 0.0,
            static_cast<std::int64_t>(n));
    out.add("job_latency_p50_ms", "ms", med * 1e3,
            static_cast<std::int64_t>(n));
    out.add("job_latency_p90_ms", "ms",
            segment_median(secs, kP90Segment,
                           [](const std::vector<double>& v) {
                             return percentile(v, 0.9);
                           }) *
                1e3,
            static_cast<std::int64_t>(n));
    out.add("jobs_per_s", "jobs/s",
            segment_median(secs, kMedianSegment, ops_per_s),
            static_cast<std::int64_t>(n));
    return out;
  }

  // Traced run: the same loop with spans, then direct probes.
  const std::vector<Rep> traced =
      timed_loop(opt, plans, tracer, opt.seconds * kTracedLoopShare, 1000,
                 out, reference, nullptr);
  const double traced_med = median(rep_seconds(traced));
  out.add("trace.overhead_share", "fraction",
          med > 0.0 ? (traced_med - med) / med : 0.0);

  for (const std::string& name : paper_scenarios()) {
    const std::vector<double> d = tracer.durations("scenario." + name);
    out.add("core.scenario_s." + name, "s", median(d),
            static_cast<std::int64_t>(d.size()));
  }

  if (!traced.empty()) {
    const Rep& last = traced.back();
    out.add("core.cache.characterizations", "count",
            static_cast<double>(last.characterizations));
    out.add("core.cache.hit_ratio", "fraction",
            last.lookups > 0 ? static_cast<double>(last.lookups -
                                                   last.characterizations) /
                                   static_cast<double>(last.lookups)
                             : 0.0);
  }

  // Sweep parallelism: injection_sweep on a warm context at one lane
  // and at `lanes`, alternated.
  {
    LainContext ctx(lain::core::ContextOptions{opt.lanes});
    std::vector<double> at1, atn;
    const std::vector<Planned> serial = plan(opt, 1);
    const auto sweep = [&](const std::vector<Planned>& ps, const char* tag,
                           std::int64_t id) {
      for (const Planned& p : ps) {
        if (p.scenario->name != "injection_sweep") continue;
        Tracer::Span sp = tracer.span("core", tag, id);
        const std::int64_t t0 = now_ns();
        const lain::core::SweepEngine engine =
            ctx.make_engine(p.spec.threads);
        (void)p.scenario->run(ctx, p.spec, engine);
        return seconds_since(t0);
      }
      return 0.0;
    };
    (void)sweep(plans, "core.sweep.warm", 0);
    for (int i = 0; i < 2; ++i) {
      at1.push_back(sweep(serial, "core.sweep.lanes1", i));
      atn.push_back(sweep(plans, "core.sweep.lanesN", i));
    }
    out.add("core.sweep_speedup", "x",
            median(atn) > 0.0 ? median(at1) / median(atn) : 0.0, 2);
  }
  return out;
}

}  // namespace perfbench
