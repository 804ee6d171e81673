#include "core/context.hpp"

#include <optional>
#include <tuple>
#include <utility>

#include "core/metrics.hpp"
#include "noc/parallel/sharded_sim.hpp"

namespace lain::core {

namespace {

// circuit_tie must enumerate EVERY field of CrossbarSpec and
// DeviceSizing except static_probability and freq_hz, and spec_tie
// adds those two: a missed field would silently alias distinct specs
// (or distinct circuits) to one cache entry.  The tripwires below
// break the build here when either struct grows — extend the tuple,
// then update the sizes and field counts (x86-64 layout: 12 doubles;
// 2 ints + 3 doubles + 2 enums + sizing).
static_assert(sizeof(xbar::DeviceSizing) == 12 * sizeof(double),
              "DeviceSizing changed: update circuit_tie()");
static_assert(sizeof(xbar::CrossbarSpec) ==
                  sizeof(xbar::DeviceSizing) + 5 * sizeof(double),
              "CrossbarSpec changed: update circuit_tie()/spec_tie()");

auto circuit_tie(const xbar::CrossbarSpec& s) {
  const xbar::DeviceSizing& z = s.sizing;
  return std::make_tuple(
      s.ports, s.flit_bits, static_cast<int>(s.node), static_cast<int>(s.tier),
      s.temp_k, z.pass_width_m, z.drv1_wn_m, z.drv1_wp_m, z.drv2_wn_m,
      z.drv2_wp_m, z.keeper_width_m, z.sleep_width_m, z.precharge_width_m,
      z.precharge_seg_width_m, z.input_drv_wn_m, z.input_drv_wp_m,
      z.segment_switch_width_m);
}

auto spec_tie(const xbar::CrossbarSpec& s) {
  return std::tuple_cat(circuit_tie(s),
                        std::make_tuple(s.freq_hz, s.static_probability));
}

// 5 circuit fields of CrossbarSpec + 12 of DeviceSizing, then the 2
// workload fields.
static_assert(std::tuple_size_v<decltype(circuit_tie(
                  std::declval<const xbar::CrossbarSpec&>()))> == 5 + 12,
              "circuit_tie() must list every circuit field");
static_assert(std::tuple_size_v<decltype(spec_tie(
                  std::declval<const xbar::CrossbarSpec&>()))> == 5 + 12 + 2,
              "spec_tie() must list every spec field");

// Kernel the spec asks for: serial for sim_threads == 1, sharded
// otherwise (auto-sharded when <= 0, partitioned by `partition`),
// with the sharded kernel's extra worker lanes leased from the
// context's thread budget.
std::unique_ptr<noc::SimKernel> make_kernel(const noc::SimConfig& cfg,
                                            int sim_threads,
                                            noc::PartitionStrategy partition,
                                            bool pin_threads,
                                            ThreadBudget* budget) {
  if (sim_threads == 1) return std::make_unique<noc::Simulation>(cfg);
  noc::ShardedOptions opt;
  opt.shards = sim_threads;
  opt.partition = partition;
  opt.pin_threads = pin_threads;
  opt.budget = budget;
  return std::make_unique<noc::ShardedSimulation>(cfg, opt);
}

// Attaches the run's telemetry per TelemetryOptions: with a sink, a
// full MetricsStreamer (manifest + windows + trace + summary); with
// only a window, the kernel-side window machinery (so observer
// slices still flush at boundaries).  Returns the streamer so the
// caller can finish() it.
std::optional<telemetry::MetricsStreamer> attach_telemetry(
    noc::SimKernel& kernel, PoweredNoc* power, const noc::SimConfig& cfg,
    const std::string& scheme, bool gating, const TelemetryOptions& t) {
  telemetry::StreamOptions opt;
  opt.window_cycles = t.metrics_window;
  opt.trace_flits = t.trace_flits;
  if (t.sink != nullptr) {
    return std::optional<telemetry::MetricsStreamer>(
        std::in_place, kernel, power, t.sink, opt,
        telemetry::make_manifest(cfg, kernel, scheme, gating, opt));
  }
  if (t.metrics_window > 0) kernel.set_metrics_window(t.metrics_window);
  if (t.trace_flits > 0) {
    kernel.enable_flit_trace(static_cast<std::size_t>(t.trace_flits));
  }
  return std::nullopt;
}

// Installs the run-lifecycle control (cancel + saturation guard) per
// TelemetryOptions.  Both verdicts are functions of the window series
// and the cancel flag only — no clocks — so a control that never
// fires leaves the run bit-identical.  Controls act at window
// boundaries; with metrics_window == 0 there are none and the hook is
// never consulted.
void install_window_control(noc::SimKernel& kernel,
                            const TelemetryOptions& t) {
  if (t.cancel == nullptr && t.abort_latency_mult <= 0.0 &&
      !t.abort_on_disconnect) {
    return;
  }
  const std::atomic<bool>* cancel = t.cancel;
  const double mult = t.abort_latency_mult;
  const bool abort_disconnect = t.abort_on_disconnect;
  // The disconnect guard reads the kernel's post-fault routing state;
  // the control hook is only invoked between windows on the kernel's
  // own run loop, so the reference stays valid and race-free.
  noc::SimKernel* k = &kernel;
  // Zero-load latency reference: the first closed window that ejected
  // packets.  Early windows see near-zero-load latency even on runs
  // that later saturate, because congestion builds over time.
  double reference = 0.0;
  kernel.set_window_control(
      [cancel, mult, abort_disconnect, k,
       reference](const noc::SimKernel::MetricsWindow& w) mutable {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          return noc::SimKernel::WindowVerdict::kCancel;
        }
        if (abort_disconnect && k->unreachable_pairs() > 0) {
          return noc::SimKernel::WindowVerdict::kAbortDisconnected;
        }
        if (mult > 0.0 && w.stats.packet_latency.count() > 0) {
          const double mean = w.stats.packet_latency.mean();
          if (reference <= 0.0) {
            reference = mean;
          } else if (mean > mult * reference) {
            return noc::SimKernel::WindowVerdict::kAbortSaturated;
          }
        }
        return noc::SimKernel::WindowVerdict::kContinue;
      });
}

}  // namespace

bool CharacterizationCache::KeyLess::operator()(const Key& a,
                                                const Key& b) const {
  if (a.second != b.second) return a.second < b.second;
  return spec_tie(a.first) < spec_tie(b.first);
}

bool CharacterizationCache::CircuitLess::operator()(const Key& a,
                                                    const Key& b) const {
  if (a.second != b.second) return a.second < b.second;
  return circuit_tie(a.first) < circuit_tie(b.first);
}

template <typename T, typename Less>
CharacterizationCache::Entry<T>& CharacterizationCache::entry(
    Map<T, Less>& map, const Key& key) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map.find(key);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(key, std::make_unique<Entry<T>>()).first;
  }
  return *it->second;
}

const xbar::LeakageStates& CharacterizationCache::circuit(
    const xbar::CrossbarSpec& spec, xbar::Scheme scheme) {
  Entry<xbar::LeakageStates>& e = entry(circuits_, Key(spec, scheme));
  std::call_once(e.once, [&] {
    e.value = xbar::solve_leakage_states(spec, scheme);
    circuit_solves_.fetch_add(1, std::memory_order_relaxed);
  });
  return e.value;
}

const xbar::Characterization& CharacterizationCache::get(
    const xbar::CrossbarSpec& spec, xbar::Scheme scheme) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Entry<xbar::Characterization>& e = entry(entries_, Key(spec, scheme));

  // Outside the map locks: the first caller per key characterizes,
  // concurrent callers for the same key block until it is done.  A
  // throwing characterize leaves the flag unset, so the next caller
  // retries instead of seeing a half-built value.  The circuit memo
  // nests its own once-flag; no map lock is held across either.
  std::call_once(e.once, [&] {
    e.value = xbar::characterize(spec, scheme, circuit(spec, scheme));
    characterizations_.fetch_add(1, std::memory_order_relaxed);
  });
  return e.value;
}

std::size_t CharacterizationCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

LainContext::LainContext(const ContextOptions& opt)
    : budget_(opt.thread_budget) {}

LainContext& LainContext::global() {
  static LainContext* ctx = new LainContext();
  return *ctx;
}

NocRunResult LainContext::run_noc(const NocRunSpec& spec) {
  std::unique_ptr<noc::SimKernel> kernel = make_kernel(
      spec.sim, spec.sim_threads, spec.partition, spec.pin_threads, &budget_);
  noc::Network& net = kernel->network();
  const NocPowerConfig pcfg =
      default_noc_power(spec.scheme, spec.enable_gating);
  PoweredNoc powered(net, pcfg,
                     characterization(pcfg.xbar_spec, pcfg.scheme));
  std::optional<telemetry::MetricsStreamer> streamer = attach_telemetry(
      *kernel, &powered, spec.sim,
      std::string(xbar::scheme_name(spec.scheme)), spec.enable_gating,
      spec.telemetry);
  install_window_control(*kernel, spec.telemetry);
  noc::SimStats stats;
  if (spec.telemetry.cancel != nullptr &&
      spec.telemetry.cancel->load(std::memory_order_relaxed)) {
    // Canceled before the first cycle: skip the run, report canceled.
    kernel->mark_canceled();
  } else {
    stats = kernel->run();
  }
  if (streamer) {
    streamer->finish(stats, kernel->saturated(), cache_.lookups(),
                     cache_.hits());
  }

  NocRunResult r;
  r.scheme = spec.scheme;
  r.injection_rate = spec.sim.injection_rate;
  r.pattern = spec.sim.pattern;
  r.avg_packet_latency_cycles = stats.packet_latency.mean();
  r.throughput_flits_node_cycle = stats.throughput_flits_per_node_cycle();
  r.network_power_w = powered.average_power_w();
  r.crossbar_power_w = powered.crossbar_average_power_w();
  const auto cycles = powered.total_cycles();
  r.standby_fraction =
      cycles ? static_cast<double>(powered.standby_cycles()) / cycles : 0.0;
  const double seconds =
      cycles ? static_cast<double>(cycles) /
                   static_cast<double>(net.num_nodes()) /
                   powered.config().xbar_spec.freq_hz
             : 0.0;
  r.realized_saving_w =
      seconds > 0.0 ? powered.realized_standby_saving_j() / seconds : 0.0;
  r.saturated = kernel->saturated();
  r.canceled = kernel->canceled();
  r.aborted_saturated = kernel->aborted_saturated();
  r.packets_lost = stats.packets_lost;
  r.packets_retransmitted = stats.packets_retransmitted;
  r.packets_unreachable_dropped = stats.packets_unreachable_dropped;
  r.unreachable_pairs = kernel->unreachable_pairs();
  r.aborted_disconnected = kernel->aborted_disconnected();
  return r;
}

noc::Histogram LainContext::idle_histogram(const noc::SimConfig& cfg,
                                           int sim_threads,
                                           noc::PartitionStrategy partition,
                                           bool pin_threads,
                                           const TelemetryOptions& telemetry) {
  std::unique_ptr<noc::SimKernel> kernel =
      make_kernel(cfg, sim_threads, partition, pin_threads, &budget_);
  std::optional<telemetry::MetricsStreamer> streamer = attach_telemetry(
      *kernel, /*power=*/nullptr, cfg, /*scheme=*/"", /*gating=*/false,
      telemetry);
  install_window_control(*kernel, telemetry);
  noc::SimStats stats;
  if (telemetry.cancel != nullptr &&
      telemetry.cancel->load(std::memory_order_relaxed)) {
    kernel->mark_canceled();
  } else {
    stats = kernel->run();
  }
  if (streamer) {
    streamer->finish(stats, kernel->saturated(), cache_.lookups(),
                     cache_.hits());
  }
  noc::Network& net = kernel->network();
  noc::Histogram merged;
  for (noc::NodeId n = 0; n < net.num_nodes(); ++n) {
    merged.merge(net.router(n).activity().idle_runs());
  }
  return merged;
}

}  // namespace lain::core
