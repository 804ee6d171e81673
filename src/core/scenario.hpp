// scenario.hpp — the declarative scenario layer over the bench suite.
//
// A ScenarioSpec is the plain-data description of one experiment
// invocation: which axes to expand (schemes, patterns, rates, ...),
// how to derive seeds, and how many sweep/simulation worker lanes to
// ask the context's ThreadBudget for.  A Scenario couples a name and
// help text with (a) the axis flags it accepts — the CLI rejects
// everything else, with per-scenario usage — and (b) a runner that
// folds the spec into a ReportTable through a LainContext.
//
// The ScenarioRegistry holds the built-in scenarios (one per
// lain_bench subcommand); the CLI auto-generates its subcommand
// dispatch, `--list-scenarios`, and per-scenario `--help` from it
// instead of hand-wiring a dispatch chain.  Out-of-tree tools can
// build their own registry and register custom scenarios.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"

namespace lain::telemetry {
class MetricsSink;
}  // namespace lain::telemetry

namespace lain::core {

class LainContext;

// Plain-data description of one experiment invocation, produced from
// CLI flags (build_scenario_spec) or filled directly by library
// callers.  Fields a scenario does not accept keep their defaults.
struct ScenarioSpec {
  int threads = 1;       // sweep worker lanes (0 = all cores)
  int sim_threads = 1;   // shards per simulation (0 = auto, 1 = serial)
  std::vector<int> sim_thread_list{1, 2, 4};  // mesh_scaling's axis
  // Shard partition shape (stats are partition-invariant).
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
  std::vector<noc::PartitionStrategy> partition_list{
      noc::PartitionStrategy::kRowBands,
      noc::PartitionStrategy::kBlocks2D};  // mesh_scaling's axis
  bool pin_threads = false;  // pin shard workers to cores (Linux)
  // Event-driven cycle skipping (universal --cycle-skip; stats stay
  // bit-identical, wall-clock drops on sparse traffic).  Ignored by
  // scenarios without a cycle-accurate simulation.
  bool cycle_skip = false;
  // Fault injection (universal --fault-* flags; see noc::SimConfig for
  // semantics).  Ignored by scenarios without a cycle-accurate
  // simulation.
  int fault_links = 0;
  int fault_routers = 0;
  noc::Cycle fault_at = 0;
  std::uint64_t fault_seed = 0;
  noc::Cycle fault_repair = 0;
  bool allow_partition = false;

  std::vector<xbar::Scheme> schemes;
  std::vector<noc::TrafficPattern> patterns;
  std::vector<double> rates;
  std::vector<double> hotspot_fracs{0.2};
  std::vector<double> burst_duties{1.0};
  double burst_on_mean_cycles = 50.0;
  std::vector<double> temps_c;
  std::vector<double> probabilities;  // empty = experiment default
  std::vector<int> radices;

  std::uint64_t seed = 1;
  std::vector<std::uint64_t> seeds{1};  // expanded from seed/replicates
  bool gating = true;

  // Streaming telemetry (universal flags; no-ops for scenarios that
  // run no cycle-accurate simulation).  `metrics` is filled by the
  // CLI driver from --metrics-out/--progress; library callers may
  // install any MetricsSink (not owned; must outlive the run).
  noc::Cycle metrics_window = 0;      // --metrics-window N cycles
  std::string metrics_out;            // --metrics-out FILE ('-' = stdout)
  bool progress = false;              // --progress: stderr window lines
  std::int64_t trace_flits = 0;       // --trace-flits N (per-shard ring)
  telemetry::MetricsSink* metrics = nullptr;

  // Run-lifecycle controls (see core::TelemetryOptions).  All act at
  // metrics-window boundaries and are inert with metrics_window == 0.
  double abort_latency_mult = 0.0;    // --abort-on-saturation MULT
  bool abort_on_disconnect = false;   // --abort-on-disconnect
  const std::atomic<bool>* cancel = nullptr;  // library/serve callers only
};

// What a scenario produced.  Table scenarios fill `table`; text-only
// scenarios (table1) fill `preformatted` instead.  `extras` lazily
// renders the companion sections a scenario prints after its main
// table in text mode on stdout (device-corner check, savings matrix,
// ...); it is only invoked — and its work only done — in that mode.
// Lifetime contract: `extras` may capture the context and engine that
// were passed to Scenario::run, so invoke it only while both are
// still alive (the CLI driver does; scoped library callers must too).
struct ScenarioRun {
  std::optional<ReportTable> table;
  std::string preformatted;
  std::function<std::string()> extras;
};

struct Scenario {
  std::string name;
  std::string summary;  // one line for the subcommand list

  // Axis flags this scenario accepts, beyond the universal set
  // (--threads/--csv/--json/--out/--help).  Flags not listed here are
  // rejected with the scenario's usage text.
  std::vector<std::string> value_flags;
  std::vector<std::string> switch_flags;
  // Per-flag default overrides; flags absent here use the global
  // defaults (see flag_default()).
  std::map<std::string, std::string> defaults;
  bool sim_threads_as_list = false;  // mesh_scaling: --sim-threads is an axis
  bool partition_as_list = false;    // mesh_scaling: --partition is an axis
  bool text_only = false;            // table1: no --csv/--json
  // false: the scenario does not wire the streaming-telemetry flags
  // (--metrics-window, --metrics-out, --trace-flits, --progress and
  // the window guards) into its runs, so it rejects them instead of
  // silently ignoring them (mesh_scaling).
  bool telemetry = true;

  // Optional spec validation (throws std::invalid_argument).
  std::function<void(const ScenarioSpec&)> validate;
  // Optional text-mode banner, printed before the table.
  std::function<std::string(const ScenarioSpec&, int engine_threads)> banner;
  // The experiment itself.
  std::function<ScenarioRun(LainContext&, const ScenarioSpec&,
                            const SweepEngine&)>
      run;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry& add(Scenario scenario);

  const Scenario* find(const std::string& name) const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  // Registry-derived CLI help: the full usage page, the one-line
  // `--list-scenarios` listing, and a per-scenario usage page with
  // exactly the flags that scenario accepts.
  std::string usage() const;
  std::string list() const;
  std::string usage_for(const Scenario& scenario) const;

  // Flag sets to construct an ArgParser with: universal + scenario.
  std::vector<std::string> value_flags_for(const Scenario& scenario) const;
  std::vector<std::string> switch_flags_for(const Scenario& scenario) const;

  // The built-in scenarios behind the lain_bench subcommands.
  static const ScenarioRegistry& builtin();

 private:
  std::vector<Scenario> scenarios_;
};

// Global default value of an axis flag ("" when the flag has none).
std::string flag_default(const std::string& flag);

// Parses the flags a scenario accepts into a ScenarioSpec, applying
// the scenario's (then the global) defaults.  Throws
// std::invalid_argument on malformed values.
ScenarioSpec build_scenario_spec(const Scenario& scenario,
                                 const ArgParser& args);

// The worker-lane budget a spec calls for: hardware concurrency, but
// never less than any explicitly requested parallelism level — each
// level can be satisfied alone; it is their product that gets capped.
int recommended_thread_budget(const ScenarioSpec& spec);

// Parses `scenario`'s flags (argc/argv starting at the first flag),
// sizes a LainContext, runs the scenario and emits its output — the
// whole CLI driver behind one lain_bench subcommand.  Returns the
// process exit code (2 on flag errors, with usage on stderr).  Both
// lain_bench and the standalone bench shims go through here, so flag
// handling cannot drift between them.
int run_scenario_cli(const ScenarioRegistry& registry,
                     const Scenario& scenario, int argc,
                     const char* const* argv);

// Entry point for a standalone bench main that mirrors one registry
// scenario: `int main(int argc, char** argv) { return
// scenario_main("breakeven", argc, argv); }`.  Catches everything and
// maps errors to nonzero exits like lain_bench does.
int scenario_main(const std::string& name, int argc,
                  const char* const* argv);

}  // namespace lain::core
