// test_context.cpp — LainContext and the shared characterization
// cache: same-object hits under concurrency, bit-identity with the
// uncached path, the exposed hit counters, the headline property
// that a 100-job sweep characterizes each distinct (spec, scheme)
// pair exactly once, and the circuit memo underneath it (one leakage
// solve per circuit, whatever the static probability or frequency).

#include "core/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/bench_suite.hpp"

#include "noc/rng.hpp"

namespace lain::core {
namespace {

// Field-by-field bitwise equality (memcmp would trip on padding).
void expect_bit_identical(const xbar::Characterization& a,
                          const xbar::Characterization& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.delay_hl_s, b.delay_hl_s);
  EXPECT_EQ(a.delay_lh_s, b.delay_lh_s);
  EXPECT_EQ(a.active_leakage_w, b.active_leakage_w);
  EXPECT_EQ(a.idle_leakage_w, b.idle_leakage_w);
  EXPECT_EQ(a.standby_leakage_w, b.standby_leakage_w);
  EXPECT_EQ(a.dynamic_power_w, b.dynamic_power_w);
  EXPECT_EQ(a.control_power_w, b.control_power_w);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.sleep_entry_energy_j, b.sleep_entry_energy_j);
  EXPECT_EQ(a.wakeup_energy_j, b.wakeup_energy_j);
  EXPECT_EQ(a.min_idle_cycles, b.min_idle_cycles);
}

TEST(CharacterizationCache, ComputesOncePerDistinctPair) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();

  const xbar::Characterization& a = cache.get(spec, xbar::Scheme::kDPC);
  const xbar::Characterization& b = cache.get(spec, xbar::Scheme::kDPC);
  EXPECT_EQ(&a, &b);  // same cached object, stable reference
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.characterizations(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A different spec and a different scheme are distinct pairs.
  xbar::CrossbarSpec hot = spec;
  hot.temp_k = 300.0;
  cache.get(hot, xbar::Scheme::kDPC);
  cache.get(spec, xbar::Scheme::kSC);
  EXPECT_EQ(cache.characterizations(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CharacterizationCache, BitIdenticalToUncached) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  for (xbar::Scheme s : xbar::all_schemes()) {
    expect_bit_identical(xbar::characterize(spec, s), cache.get(spec, s));
  }
}

TEST(CharacterizationCache, ConcurrentHitsReturnTheSameObject) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 16;

  std::vector<const xbar::Characterization*> seen(
      static_cast<std::size_t>(kThreads) * kGetsPerThread, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &spec, &seen, t] {
      for (int g = 0; g < kGetsPerThread; ++g) {
        seen[static_cast<std::size_t>(t) * kGetsPerThread +
             static_cast<std::size_t>(g)] =
            &cache.get(spec, xbar::Scheme::kDFC);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const xbar::Characterization* p : seen) EXPECT_EQ(p, seen.front());
  // However the threads interleaved, exactly one characterization ran.
  EXPECT_EQ(cache.characterizations(), 1u);
  EXPECT_EQ(cache.lookups(),
            static_cast<std::uint64_t>(kThreads) * kGetsPerThread);
  EXPECT_EQ(cache.hits(), cache.lookups() - 1);
}

TEST(CharacterizationCache, ConcurrentPValuesSolveTheCircuitOnce) {
  // Eight threads miss on eight distinct (spec, scheme) pairs that
  // share one circuit: eight characterizations, one leakage solve.  A
  // segmented scheme keeps the solve long enough for the threads to
  // pile up on the circuit's once-flag.
  CharacterizationCache cache;
  constexpr int kThreads = 8;
  std::vector<xbar::CrossbarSpec> specs(kThreads, xbar::table1_spec());
  for (int t = 0; t < kThreads; ++t) {
    specs[static_cast<std::size_t>(t)].static_probability = 0.1 * (t + 1);
  }
  std::vector<const xbar::Characterization*> seen(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto i = static_cast<std::size_t>(t);
      seen[i] = &cache.get(specs[i], xbar::Scheme::kSDFC);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache.circuit_solves(), 1u);
  EXPECT_EQ(cache.characterizations(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    expect_bit_identical(xbar::characterize(specs[i], xbar::Scheme::kSDFC),
                         *seen[i]);
  }
}

TEST(CircuitMemo, BitIdenticalToUncachedAcrossTheCircuitAndWorkloadAxes) {
  LainContext ctx;
  const tech::Node nodes[] = {tech::Node::k90nm, tech::Node::k65nm,
                              tech::Node::k45nm};
  std::uint64_t pairs = 0;
  for (xbar::Scheme s : xbar::all_schemes()) {
    for (tech::Node node : nodes) {
      for (double temp_k : {300.0, 383.0}) {
        for (double p : {0.05, 0.5, 0.95}) {
          for (double f : {1e9, 3e9}) {
            xbar::CrossbarSpec spec = xbar::table1_spec();
            spec.node = node;
            spec.temp_k = temp_k;
            spec.static_probability = p;
            spec.freq_hz = f;
            SCOPED_TRACE(testing::Message()
                         << xbar::scheme_name(s) << " node "
                         << static_cast<int>(node) << " T " << temp_k
                         << " p " << p << " f " << f);
            expect_bit_identical(xbar::characterize(spec, s),
                                 ctx.characterization(spec, s));
            ++pairs;
          }
        }
      }
    }
  }
  const CharacterizationCache& cache = ctx.characterizations();
  EXPECT_EQ(cache.characterizations(), pairs);
  EXPECT_EQ(cache.circuit_solves(), pairs / 6);  // 3 p x 2 f per circuit
}

TEST(CircuitMemo, StaticProbabilityStudySolvesEachSchemeOnce) {
  LainContext ctx;
  const SweepEngine engine = ctx.make_engine(2);
  static_probability(ctx, StaticProbabilityOptions{}, engine);
  static_probability_worst_case(ctx, engine);

  // The two tables' p axes (built as bench_suite builds them), joined.
  std::set<double> ps;
  for (double p = 0.1; p <= 0.91; p += 0.1) ps.insert(p);
  for (double p = 0.05; p <= 0.96; p += 0.05) ps.insert(p);
  const std::uint64_t schemes = xbar::all_schemes().size();

  const CharacterizationCache& cache = ctx.characterizations();
  EXPECT_EQ(cache.circuit_solves(), schemes);
  EXPECT_EQ(cache.characterizations(), ps.size() * schemes);
  EXPECT_EQ(cache.size(), ps.size() * schemes);
}

TEST(CircuitMemo, KeyCoversEveryCircuitFieldAndNoWorkloadField) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec base = xbar::table1_spec();
  const xbar::Scheme scheme = xbar::Scheme::kSC;
  cache.get(base, scheme);
  ASSERT_EQ(cache.circuit_solves(), 1u);

  // Workload fields reuse the circuit.
  xbar::CrossbarSpec workload = base;
  workload.static_probability = 0.25;
  cache.get(workload, scheme);
  workload.freq_hz = 1e9;
  cache.get(workload, scheme);
  EXPECT_EQ(cache.characterizations(), 3u);
  EXPECT_EQ(cache.circuit_solves(), 1u);

  // Every circuit field, perturbed alone, is a new circuit.
  std::vector<xbar::CrossbarSpec> perturbed;
  auto with = [&](auto&& edit) {
    xbar::CrossbarSpec s = base;
    edit(s);
    perturbed.push_back(s);
  };
  with([](xbar::CrossbarSpec& s) { s.temp_k = 300.0; });
  with([](xbar::CrossbarSpec& s) { s.node = tech::Node::k65nm; });
  with([](xbar::CrossbarSpec& s) { s.ports = 4; });
  with([](xbar::CrossbarSpec& s) { s.flit_bits = 64; });
  with([](xbar::CrossbarSpec& s) { s.tier = tech::WireTier::kGlobal; });
  double xbar::DeviceSizing::*const sizing_fields[] = {
      &xbar::DeviceSizing::pass_width_m,
      &xbar::DeviceSizing::drv1_wn_m,
      &xbar::DeviceSizing::drv1_wp_m,
      &xbar::DeviceSizing::drv2_wn_m,
      &xbar::DeviceSizing::drv2_wp_m,
      &xbar::DeviceSizing::keeper_width_m,
      &xbar::DeviceSizing::sleep_width_m,
      &xbar::DeviceSizing::precharge_width_m,
      &xbar::DeviceSizing::precharge_seg_width_m,
      &xbar::DeviceSizing::input_drv_wn_m,
      &xbar::DeviceSizing::input_drv_wp_m,
      &xbar::DeviceSizing::segment_switch_width_m};
  static_assert(sizeof(sizing_fields) / sizeof(sizing_fields[0]) *
                        sizeof(double) ==
                    sizeof(xbar::DeviceSizing),
                "list every DeviceSizing field");
  for (double xbar::DeviceSizing::*field : sizing_fields) {
    with([field](xbar::CrossbarSpec& s) { s.sizing.*field *= 1.1; });
  }

  std::uint64_t expected = 1;
  for (const xbar::CrossbarSpec& s : perturbed) {
    cache.get(s, scheme);
    EXPECT_EQ(cache.circuit_solves(), ++expected);
  }
  EXPECT_EQ(expected, 1u + 5u + 12u);
}

// A small, fast powered run for sweep-shaped tests.
NocRunSpec tiny_run_spec(xbar::Scheme scheme, std::uint64_t seed) {
  NocRunSpec spec;
  spec.scheme = scheme;
  spec.sim = make_sim_config(2, noc::TopologyKind::kMesh, 0.1,
                             noc::TrafficPattern::kUniform, seed);
  spec.sim.warmup_cycles = 20;
  spec.sim.measure_cycles = 100;
  spec.sim.drain_limit_cycles = 2000;
  return spec;
}

// The acceptance property: a >= 100-job sweep performs exactly one
// characterization per distinct (spec, scheme) pair.
TEST(LainContext, HundredJobSweepCharacterizesEachSchemeOnce) {
  ContextOptions opt;
  opt.thread_budget = 4;
  LainContext ctx(opt);
  const SweepEngine engine = ctx.make_engine(4);
  EXPECT_EQ(engine.threads(), 4);

  const std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC,
                                          xbar::Scheme::kDPC};
  constexpr std::size_t kSeedsPerScheme = 50;
  const std::size_t jobs = schemes.size() * kSeedsPerScheme;  // 100
  const std::vector<NocRunResult> results =
      engine.map<NocRunResult>(jobs, [&](std::size_t i) {
        const xbar::Scheme scheme = schemes[i / kSeedsPerScheme];
        return ctx.run_noc(tiny_run_spec(scheme, 1 + i % kSeedsPerScheme));
      });

  EXPECT_EQ(results.size(), jobs);
  EXPECT_EQ(ctx.characterizations().lookups(), jobs);
  EXPECT_EQ(ctx.characterizations().characterizations(), schemes.size());
  EXPECT_EQ(ctx.characterizations().hits(), jobs - schemes.size());
}

TEST(LainContext, RunNocBitIdenticalAcrossContextsAndShardCounts) {
  // Two fresh contexts (independent caches) and a sharded kernel under
  // a budget must all produce the same numbers.
  LainContext a;
  LainContext b;
  NocRunSpec serial = tiny_run_spec(xbar::Scheme::kSDPC, 7);
  NocRunSpec sharded = serial;
  sharded.sim_threads = 2;

  const NocRunResult ra = a.run_noc(serial);
  const NocRunResult rb = b.run_noc(sharded);
  EXPECT_EQ(ra.avg_packet_latency_cycles, rb.avg_packet_latency_cycles);
  EXPECT_EQ(ra.throughput_flits_node_cycle, rb.throughput_flits_node_cycle);
  EXPECT_EQ(ra.network_power_w, rb.network_power_w);
  EXPECT_EQ(ra.crossbar_power_w, rb.crossbar_power_w);
  EXPECT_EQ(ra.standby_fraction, rb.standby_fraction);
  EXPECT_EQ(ra.realized_saving_w, rb.realized_saving_w);
}

TEST(LainContext, DeprecatedShimsShareTheGlobalCache) {
  CharacterizationCache& cache = LainContext::global().characterizations();
  const std::uint64_t before = cache.lookups();
  run_powered_noc(tiny_run_spec(xbar::Scheme::kDFC, 3));
  EXPECT_GT(cache.lookups(), before);
}

}  // namespace
}  // namespace lain::core
