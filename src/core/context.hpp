// context.hpp — the session object every experiment runs through.
//
// A LainContext owns the two pieces of process-wide state the
// experiment layer shares:
//
//   * a thread-safe characterization cache keyed on (CrossbarSpec,
//     Scheme), so a 1000-job sweep characterizes each scheme once
//     instead of 1000 times, and a sweep over static probability or
//     frequency runs the leakage solver once per circuit, and
//   * a ThreadBudget that SweepEngine and ShardedSimulation draw
//     worker leases from, so nested parallelism (`--threads 8
//     --sim-threads 4`) cooperates instead of oversubscribing.
//
// The free functions in experiments.hpp (run_powered_noc, ...) remain
// as thin deprecated shims forwarding through LainContext::global();
// new code takes a context (or creates a scoped one) explicitly.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "core/thread_budget.hpp"
#include "xbar/characterize.hpp"

namespace lain::core {

// Per-context (spec, scheme) -> Characterization cache.  Lookups
// take a shared lock; a miss inserts an entry under the exclusive
// lock and characterizes outside it under a per-entry once-flag, so
//
//   * concurrent misses on the SAME key characterize exactly once
//     (late arrivals block until the value is ready),
//   * concurrent misses on DISTINCT keys characterize in parallel,
//   * returned references are stable for the cache's lifetime.
//
// A characterization miss does not re-run the leakage solver when
// only static_probability or freq_hz differ from an earlier request:
// a second once-flag map, keyed on the circuit (every other spec field,
// plus the scheme), memoizes xbar::solve_leakage_states, and the miss
// only pays the cheap xbar::characterize(spec, scheme, states).
class CharacterizationCache {
 public:
  const xbar::Characterization& get(const xbar::CrossbarSpec& spec,
                                    xbar::Scheme scheme);

  // Counters for tests and cache-effectiveness reporting.
  std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  // Number of (spec, scheme) characterizations computed: exactly one
  // per distinct pair ever requested.
  std::uint64_t characterizations() const {
    return characterizations_.load(std::memory_order_relaxed);
  }
  std::uint64_t hits() const { return lookups() - characterizations(); }
  // Number of xbar::solve_leakage_states calls: exactly one per
  // distinct circuit ever requested.
  std::uint64_t circuit_solves() const {
    return circuit_solves_.load(std::memory_order_relaxed);
  }
  // Distinct (spec, scheme) pairs held.
  std::size_t size() const;

 private:
  using Key = std::pair<xbar::CrossbarSpec, xbar::Scheme>;
  template <typename T>
  struct Entry {
    std::once_flag once;
    T value;
  };
  // Orders on every spec field.
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const;
  };
  // Orders on every spec field except static_probability and freq_hz.
  struct CircuitLess {
    bool operator()(const Key& a, const Key& b) const;
  };
  template <typename T, typename Less>
  using Map = std::map<Key, std::unique_ptr<Entry<T>>, Less>;

  // The entry for `key`, inserted empty on first request.
  template <typename T, typename Less>
  Entry<T>& entry(Map<T, Less>& map, const Key& key);

  const xbar::LeakageStates& circuit(const xbar::CrossbarSpec& spec,
                                     xbar::Scheme scheme);

  mutable std::shared_mutex mu_;  // guards both maps
  Map<xbar::Characterization, KeyLess> entries_;
  Map<xbar::LeakageStates, CircuitLess> circuits_;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> characterizations_{0};
  std::atomic<std::uint64_t> circuit_solves_{0};
};

struct ContextOptions {
  // Worker-lane budget shared by sweeps and sharded simulations;
  // <= 0 means hardware_concurrency (at least 1).
  int thread_budget = 0;
};

class LainContext {
 public:
  explicit LainContext(const ContextOptions& opt = {});

  LainContext(const LainContext&) = delete;
  LainContext& operator=(const LainContext&) = delete;

  // The process-wide default context the deprecated free-function
  // shims forward through.  Created on first use; lives forever.
  static LainContext& global();

  CharacterizationCache& characterizations() { return cache_; }
  ThreadBudget& thread_budget() { return budget_; }

  // Cached characterization (see CharacterizationCache).
  const xbar::Characterization& characterization(
      const xbar::CrossbarSpec& spec, xbar::Scheme scheme) {
    return cache_.get(spec, scheme);
  }

  // A sweep engine whose worker count draws from this context's
  // thread budget (threads <= 0 asks for hardware_concurrency).
  SweepEngine make_engine(int threads = 1) {
    return SweepEngine(threads, &budget_);
  }

  // One powered NoC run: the characterization comes from the cache
  // and a sharded kernel's extra worker lanes come from the budget.
  // Results are bit-identical to the uncached free function.
  NocRunResult run_noc(const NocRunSpec& spec);

  // Merged idle-run histogram of every router crossbar (E9), on the
  // budgeted kernel.  Bit-identical for any thread count / partition.
  // `telemetry` optionally streams the (unpowered) run's metrics.
  noc::Histogram idle_histogram(
      const noc::SimConfig& cfg, int sim_threads = 1,
      noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto,
      bool pin_threads = false, const TelemetryOptions& telemetry = {});

 private:
  CharacterizationCache cache_;
  ThreadBudget budget_;
};

}  // namespace lain::core
