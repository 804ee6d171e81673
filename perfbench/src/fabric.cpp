// fabric_paper / fabric_loaded — one powered LainContext::run_noc per
// repetition on a uniform-traffic mesh, SDPC crossbars with MIT
// gating, the default shard policy (sim_threads <= 0), with the
// characterization cache warmed in set-up.
//
// Output checks.  run_noc returns a NocRunResult, not the full
// SimStats, so the checks come in two parts:
//   * every timed repetition's NocRunResult is bit-identical to the
//     one of an untimed serial-engine run_noc at the same seed;
//   * untimed, the full SimStats (every counter, accumulator and the
//     latency histogram) of two default-policy runs built from the
//     same public pieces run_noc uses are bit-identical to a serial
//     engine's, every packet injected is delivered, and the run is
//     not saturated.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/telemetry.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"

namespace perfbench {

namespace {

namespace core = lain::core;
namespace noc = lain::noc;

constexpr lain::xbar::Scheme kScheme = lain::xbar::Scheme::kSDPC;

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

bool same(const noc::Accumulator& a, const noc::Accumulator& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) &&
         same_bits(a.min(), b.min()) && same_bits(a.max(), b.max());
}

bool same(const noc::SimStats& a, const noc::SimStats& b) {
  return a.packets_injected == b.packets_injected &&
         a.packets_ejected == b.packets_ejected &&
         a.flits_injected == b.flits_injected &&
         a.flits_ejected == b.flits_ejected &&
         a.packets_lost == b.packets_lost && a.flits_lost == b.flits_lost &&
         a.packets_retransmitted == b.packets_retransmitted &&
         a.packets_unreachable_dropped == b.packets_unreachable_dropped &&
         a.measured_cycles == b.measured_cycles &&
         a.num_nodes == b.num_nodes &&
         same(a.packet_latency, b.packet_latency) &&
         same(a.network_latency, b.network_latency) &&
         same(a.hops, b.hops) &&
         a.latency_hist.count() == b.latency_hist.count() &&
         a.latency_hist.bins() == b.latency_hist.bins();
}

bool same(const core::NocRunResult& a, const core::NocRunResult& b) {
  return a.scheme == b.scheme &&
         same_bits(a.injection_rate, b.injection_rate) &&
         a.pattern == b.pattern &&
         same_bits(a.avg_packet_latency_cycles, b.avg_packet_latency_cycles) &&
         same_bits(a.throughput_flits_node_cycle,
                   b.throughput_flits_node_cycle) &&
         same_bits(a.network_power_w, b.network_power_w) &&
         same_bits(a.crossbar_power_w, b.crossbar_power_w) &&
         same_bits(a.standby_fraction, b.standby_fraction) &&
         same_bits(a.realized_saving_w, b.realized_saving_w) &&
         a.saturated == b.saturated && a.canceled == b.canceled &&
         a.aborted_saturated == b.aborted_saturated &&
         a.packets_lost == b.packets_lost &&
         a.packets_retransmitted == b.packets_retransmitted &&
         a.packets_unreachable_dropped == b.packets_unreachable_dropped &&
         a.unreachable_pairs == b.unreachable_pairs &&
         a.aborted_disconnected == b.aborted_disconnected;
}

struct DirectRun {
  noc::SimStats stats;
  noc::Cycle cycles = 0;
  bool saturated = false;
  std::int64_t idle_fast_ticks = 0;
  std::int64_t skipped_cycles = 0;
  int shards = 1;
  double seconds = 0.0;
};

// The kernel run_noc builds for `sim_threads` (1 = serial engine,
// <= 0 = the default shard policy on the context's budget), or — with
// `explicit_shards` — a ShardedSimulation at exactly that many
// shards, outside the budget.
std::unique_ptr<noc::SimKernel> build_kernel(core::LainContext& ctx,
                                             const noc::SimConfig& cfg,
                                             int sim_threads,
                                             bool explicit_shards) {
  if (sim_threads == 1) return std::make_unique<noc::Simulation>(cfg);
  noc::ShardedOptions o;
  o.shards = sim_threads;
  o.partition = noc::PartitionStrategy::kAuto;
  o.budget = explicit_shards ? nullptr : &ctx.thread_budget();
  return std::make_unique<noc::ShardedSimulation>(cfg, o);
}

DirectRun direct_run(core::LainContext& ctx, const noc::SimConfig& cfg,
                     int sim_threads, bool explicit_shards, bool powered,
                     lain::telemetry::Collector* collector, Tracer& tracer,
                     const std::string& tag, std::int64_t id) {
  DirectRun r;
  const std::int64_t t0 = now_ns();
  Tracer::Span probe = tracer.span("core", "probe." + tag, id);
  const char* engine_layer = sim_threads == 1 ? "noc" : "parallel";
  std::unique_ptr<noc::SimKernel> kernel;
  {
    Tracer::Span s = tracer.span(engine_layer, "kernel_build", id);
    kernel = build_kernel(ctx, cfg, sim_threads, explicit_shards);
  }
  std::optional<core::PoweredNoc> power;
  if (powered) {
    Tracer::Span s = tracer.span("power", "power.attach", id);
    const core::NocPowerConfig pcfg = core::default_noc_power(kScheme);
    power.emplace(kernel->network(), pcfg,
                  ctx.characterization(pcfg.xbar_spec, pcfg.scheme));
  }
  if (collector != nullptr) kernel->set_telemetry(collector);
  {
    Tracer::Span s = tracer.span(engine_layer, "kernel.run", id);
    r.stats = kernel->run();
  }
  r.cycles = kernel->now();
  r.saturated = kernel->saturated();
  r.idle_fast_ticks = kernel->idle_fast_ticks();
  r.skipped_cycles = kernel->skipped_cycles();
  r.shards = kernel->num_shards();
  kernel.reset();
  r.seconds = seconds_since(t0);
  return r;
}

struct Loop {
  std::vector<double> seconds;
};

// run_noc repetitions until `seconds` have passed (at least five).
// `between` runs after each repetition, outside its timing.
Loop timed_loop(core::LainContext& ctx, const core::NocRunSpec& spec,
                const core::NocRunResult& reference, Tracer& tracer,
                double seconds, std::int64_t first_id, Outcome& out,
                const std::function<void()>& between) {
  Loop loop;
  const std::int64_t t0 = now_ns();
  while (loop.seconds.size() < 5 || seconds_since(t0) < seconds) {
    const auto id =
        first_id + static_cast<std::int64_t>(loop.seconds.size());
    ++out.attempted;
    const std::int64_t r0 = now_ns();
    core::NocRunResult r;
    {
      Tracer::Span s = tracer.span("core", "fabric.rep", id);
      r = ctx.run_noc(spec);
    }
    loop.seconds.push_back(seconds_since(r0));
    if (!same(r, reference)) {
      out.fail("repetition " + std::to_string(id) +
               ": run_noc result differs from the serial reference");
    }
    if (between) between();
  }
  return loop;
}

struct SetupTimes {
  std::vector<double> total, characterize, kernel_build;
};

// One set-up: context + budget, cache warm-up, and one default-policy
// kernel (network, partition) with its power hooks.
std::unique_ptr<core::LainContext> set_up(const Options& opt,
                                          const noc::SimConfig& cfg,
                                          SetupTimes& times) {
  const std::int64_t t0 = now_ns();
  // The budget holds a sharded kernel's extra workers; its caller runs
  // shard 0 on a lane of its own, so the default policy gets at most
  // `lanes` shards.
  auto ctx = std::make_unique<core::LainContext>(
      core::ContextOptions{std::max(1, opt.lanes - 1)});
  const core::NocPowerConfig pcfg = core::default_noc_power(kScheme);
  const std::int64_t c0 = now_ns();
  (void)ctx->characterization(pcfg.xbar_spec, pcfg.scheme);
  times.characterize.push_back(seconds_since(c0));
  const std::int64_t k0 = now_ns();
  {
    std::unique_ptr<noc::SimKernel> k = build_kernel(*ctx, cfg, 0, false);
    const core::PoweredNoc p(
        k->network(), pcfg,
        ctx->characterization(pcfg.xbar_spec, pcfg.scheme));
  }
  times.kernel_build.push_back(seconds_since(k0));
  times.total.push_back(seconds_since(t0));
  return ctx;
}

}  // namespace

Outcome run_fabric(const Options& opt, Tracer& tracer, int radix,
                   double rate, int warmup_cycles, int measure_cycles) {
  Outcome out;
  // Warm-up and measured cycles, then the drain.
  noc::SimConfig cfg = core::make_sim_config(
      radix, noc::TopologyKind::kMesh, rate, noc::TrafficPattern::kUniform,
      opt.seed);
  cfg.warmup_cycles = warmup_cycles;
  cfg.measure_cycles = measure_cycles;
  core::NocRunSpec spec;
  spec.scheme = kScheme;
  spec.sim = cfg;
  spec.enable_gating = true;
  spec.sim_threads = 0;  // the default shard policy
  spec.partition = noc::PartitionStrategy::kAuto;

  // The session's set-up, then more samples of it between the timed
  // repetitions (about twenty per run), so its median sees the same host
  // conditions as theirs.
  SetupTimes setup;
  const std::unique_ptr<core::LainContext> ctx = set_up(opt, cfg, setup);
  std::int64_t last_setup = now_ns();
  const auto sample_setup = [&] {
    if (seconds_since(last_setup) < opt.seconds / 20) return;
    (void)set_up(opt, cfg, setup);
    last_setup = now_ns();
  };
  Tracer none(false);

  // Untimed references and the full-SimStats check.
  ++out.attempted;
  const DirectRun serial =
      direct_run(*ctx, cfg, 1, false, true, nullptr, none, "serial", 0);
  const std::int64_t nodes = cfg.num_nodes();
  const double node_cycles =
      static_cast<double>(nodes) * static_cast<double>(serial.cycles);
  if (serial.saturated) out.fail("serial reference run saturated");
  if (serial.stats.packets_injected != serial.stats.packets_ejected ||
      serial.stats.flits_injected != serial.stats.flits_ejected) {
    out.fail("serial reference run did not deliver every packet injected");
  }
  if (serial.stats.packets_injected <= 0) out.fail("no traffic injected");
  DirectRun sharded;
  for (int i = 0; i < 2; ++i) {
    ++out.attempted;
    sharded = direct_run(*ctx, cfg, 0, false, true, nullptr, none,
                         "default", i);
    if (!same(sharded.stats, serial.stats) ||
        sharded.cycles != serial.cycles) {
      out.fail("default-policy run " + std::to_string(i) +
               ": SimStats differ from the serial engine's");
    }
  }
  core::NocRunSpec serial_spec = spec;
  serial_spec.sim_threads = 1;
  ++out.attempted;
  const core::NocRunResult reference = ctx->run_noc(serial_spec);
  if (reference.saturated) out.fail("serial run_noc saturated");

  const double loop_share = opt.trace ? kTracedLoopShare : 1.0;
  const Loop loop = timed_loop(*ctx, spec, reference, none,
                               opt.seconds * loop_share, 0, out,
                               sample_setup);
  // Every timing is taken per segment of the run and reported as the
  // median over the segments.
  const auto med_of = [](const std::vector<double>& v) { return median(v); };
  const double med = segment_median(loop.seconds, kMedianSegment, med_of);
  const auto n = static_cast<std::int64_t>(loop.seconds.size());
  out.notes.push_back(distribution_note("run_noc", loop.seconds));

  if (!opt.trace) {
    out.add("setup_s", "s", median(setup.total),
            static_cast<std::int64_t>(setup.total.size()));
    out.add("repro_s", "s", med, n);
    out.add("sim_mnode_cycles_per_s", "Mnode-cycles/s",
            med > 0.0 ? node_cycles / med * 1e-6 : 0.0, n);
    out.add("job_latency_p50_ms", "ms", med * 1e3, n);
    out.add("job_latency_p90_ms", "ms",
            segment_median(loop.seconds, kP90Segment,
                           [](const std::vector<double>& v) {
                             return percentile(v, 0.9);
                           }) *
                1e3,
            n);
    out.add("jobs_per_s", "jobs/s",
            segment_median(loop.seconds, kMedianSegment, ops_per_s), n);
    return out;
  }

  // Traced run: the same loop with spans, then direct probes.
  const Loop traced =
      timed_loop(*ctx, spec, reference, tracer,
                 opt.seconds * kTracedLoopShare, 1000, out, nullptr);
  out.add("trace.overhead_share", "fraction",
          med > 0.0
              ? (segment_median(traced.seconds, kMedianSegment, med_of) - med) /
                    med
              : 0.0);

  out.add("parallel.auto_shards", "count", sharded.shards);

  // The 1/2/4-shard grid, alternated so drift hits every column.
  const int grid[] = {1, 2, 4};
  std::vector<double> grid_s[3];
  for (int rep = 0; rep < 3; ++rep) {
    for (int g = 0; g < 3; ++g) {
      const DirectRun r =
          direct_run(*ctx, cfg, grid[g], true, true, nullptr, tracer,
                     "grid.s" + std::to_string(grid[g]), rep);
      ++out.attempted;
      if (!same(r.stats, serial.stats)) {
        out.fail("grid run at " + std::to_string(grid[g]) +
                 " shards: SimStats differ from the serial engine's");
      }
      grid_s[g].push_back(r.seconds);
    }
  }
  const double serial_s = median(grid_s[0]);
  for (int g = 0; g < 3; ++g) {
    const double s = median(grid_s[g]);
    char line[160];
    std::snprintf(line, sizeof line,
                  "grid radix=%d rate=%.2f shards=%d wall_ms=%.3f "
                  "speedup=%.3f runs=3",
                  radix, rate, grid[g], s * 1e3, s > 0 ? serial_s / s : 0.0);
    out.notes.emplace_back(line);
    if (g > 0) {
      out.add("parallel.speedup.s" + std::to_string(grid[g]), "x",
              s > 0.0 ? serial_s / s : 0.0, 3);
    }
  }

  // Phase split of the default-policy kernel.
  {
    lain::telemetry::Collector collector;
    const DirectRun r = direct_run(*ctx, cfg, 0, false, true, &collector,
                                   tracer, "telemetry", 0);
    ++out.attempted;
    if (!same(r.stats, serial.stats)) {
      out.fail("telemetry run: SimStats differ from the serial engine's");
    }
    const lain::telemetry::PhaseCounters t = collector.totals();
    const double busy =
        static_cast<double>(t.component_ns + t.exchange_ns + t.barrier_ns);
    double max_component = 0.0;
    for (int s = 0; s < collector.num_shards(); ++s) {
      max_component = std::max(
          max_component, static_cast<double>(collector.at(s).component_ns));
    }
    const double mean_component = static_cast<double>(t.component_ns) /
                                  std::max(1, collector.num_shards());
    out.add("parallel.component_ms", "ms", t.component_ns * 1e-6);
    out.add("parallel.exchange_ms", "ms", t.exchange_ns * 1e-6);
    out.add("parallel.barrier_ms", "ms", t.barrier_ns * 1e-6);
    out.add("parallel.barrier_share", "fraction",
            busy > 0.0 ? static_cast<double>(t.barrier_ns) / busy : 0.0);
    out.add("parallel.imbalance", "x",
            mean_component > 0.0 ? max_component / mean_component : 0.0);
  }

  const noc::SimStats& st = serial.stats;
  const double flit_hops = st.hops.mean() *
                           static_cast<double>(st.hops.count()) *
                           cfg.packet_length_flits;
  out.add("noc.ns_per_node_cycle", "ns", med / node_cycles * 1e9, n);
  out.add("noc.ns_per_flit_hop", "ns",
          flit_hops > 0.0 ? med / flit_hops * 1e9 : 0.0, n);
  out.add("noc.idle_fast_share", "fraction",
          static_cast<double>(sharded.idle_fast_ticks) / node_cycles);
  out.add("noc.skipped_cycle_share", "fraction",
          static_cast<double>(sharded.skipped_cycles) /
              static_cast<double>(sharded.cycles));

  // Power hooks: the default-policy kernel with and without them.
  {
    std::vector<double> powered, bare;
    for (int rep = 0; rep < 3; ++rep) {
      powered.push_back(direct_run(*ctx, cfg, 0, false, true, nullptr,
                                   tracer, "powered", rep)
                            .seconds);
      bare.push_back(direct_run(*ctx, cfg, 0, false, false, nullptr, tracer,
                                "unpowered", rep)
                         .seconds);
    }
    const double p = median(powered);
    out.add("power.hook_share", "fraction",
            p > 0.0 ? (p - median(bare)) / p : 0.0, 3);
  }

  out.add("setup.characterize_s", "s", median(setup.characterize),
          static_cast<std::int64_t>(setup.characterize.size()));
  out.add("setup.kernel_build_s", "s", median(setup.kernel_build),
          static_cast<std::int64_t>(setup.kernel_build.size()));
  return out;
}

}  // namespace perfbench
