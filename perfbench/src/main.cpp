// lain_perfbench — one benchmark run of one workload.
//
//   lain_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--source-hash HASH]
//
// Workloads: paper_repro, fabric_paper, fabric_loaded, serve_jobs.
// --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 measures the per-layer metrics (spans around calls into
// each module, plus direct probes) and writes the spans as a Chrome
// trace.  Human-readable lines come first; the last line of stdout is
// the result: {"correct", "attempted", "failed", "metrics"}.  Every
// result is also written, with the host/build fingerprint and sample
// counts, to DIR/result-<workload>-seed<N>-trace<T>.json.
//
// Exit codes: 0 after a result, 2 on bad arguments, 3 when the binary
// is not an optimized Release build (nothing is measured), 4 when the
// workload itself threw.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/table1.hpp"
#include "core/thread_budget.hpp"
#include "xbar/characterize.hpp"
#include "xbar/spec.hpp"

namespace perfbench {

namespace {

// Every per-layer metric, whichever workload exercises it.  A traced
// run reports all of them; a layer the workload does not reach reads 0
// (see README.md).
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (const std::string& s : paper_scenarios()) {
      v.emplace_back("core.scenario_s." + s, "s");
    }
    for (const char* s : {"SC", "DFC", "DPC", "SDFC", "SDPC"}) {
      v.emplace_back(std::string("xbar.characterize_ms.") + s, "ms");
    }
    const std::pair<const char*, const char*> rest[] = {
        {"core.cache.characterizations", "count"},
        {"core.cache.hit_ratio", "fraction"},
        {"core.sweep_speedup", "x"},
        {"parallel.auto_shards", "count"},
        {"parallel.speedup.s2", "x"},
        {"parallel.speedup.s4", "x"},
        {"parallel.component_ms", "ms"},
        {"parallel.exchange_ms", "ms"},
        {"parallel.barrier_ms", "ms"},
        {"parallel.barrier_share", "fraction"},
        {"parallel.imbalance", "x"},
        {"noc.ns_per_node_cycle", "ns"},
        {"noc.ns_per_flit_hop", "ns"},
        {"noc.idle_fast_share", "fraction"},
        {"noc.skipped_cycle_share", "fraction"},
        {"power.hook_share", "fraction"},
        {"setup.characterize_s", "s"},
        {"setup.kernel_build_s", "s"},
        {"serve.accept_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.exec_ms", "ms"},
        {"serve.frames_per_job", "frames"},
        {"serve.bytes_per_job", "bytes"},
        {"serve.stream_mb_per_s", "MB/s"},
        {"serve.cache_hit_ratio", "fraction"},
        {"trace.overhead_share", "fraction"},
    };
    for (const auto& [n, u] : rest) v.emplace_back(n, u);
    for (const char* layer : kLayers) {
      v.emplace_back(std::string("self_s.") + layer, "s");
    }
    return v;
  }();
  return names;
}

// Mean |measured - paper| (percentage points) over the active and
// standby leakage savings of DFC, DPC, SDFC and SDPC.
double table1_err_pp() {
  const lain::core::Table1 t = lain::core::make_table1();
  const auto& paper = lain::core::paper_table1();
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 1; i < t.rows.size(); ++i) {
    sum += std::fabs(t.rows[i].active_saving - paper[i].active_saving);
    sum += std::fabs(t.rows[i].standby_saving - paper[i].standby_saving);
    n += 2;
  }
  return 100.0 * sum / n;
}

// Direct characterization of each scheme at the Table 1 spec: the cost
// a cold cache pays per scheme.
void characterize_probe(Outcome& out, Tracer& tracer) {
  const lain::xbar::CrossbarSpec spec = lain::xbar::table1_spec();
  for (lain::xbar::Scheme s : lain::xbar::all_schemes()) {
    const std::string name(lain::xbar::scheme_name(s));
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      Tracer::Span sp = tracer.span("xbar", "xbar.characterize." + name, i);
      const std::int64_t t0 = now_ns();
      const lain::xbar::Characterization c =
          lain::xbar::characterize(spec, s);
      ms.push_back(seconds_since(t0) * 1e3);
      if (c.scheme != s) out.fail("characterize returned the wrong scheme");
    }
    out.add("xbar.characterize_ms." + name, "ms", median(ms), 3);
  }
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lain_perfbench: %s\nusage: lain_perfbench --workload "
               "paper_repro|fabric_paper|fabric_loaded|serve_jobs --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-hash HASH]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  opt.out_dir = ".bench_out";
  std::string source_hash = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else if (a == "--source-hash") {
        source_hash = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a + ": " + v).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string fingerprint = fingerprint_json();
  if (!release_build()) {
    std::fprintf(stderr,
                 "lain_perfbench: refusing to measure a non-Release build "
                 "%s\n",
                 fingerprint.c_str());
    return 3;
  }
  // At most this many threads are busy at once, and one core is left to
  // the rest of the host: the sharded kernel's spin barriers stall
  // whenever any of its threads loses its core, so with every core
  // busy a single competing thread made run_noc 3-4x slower.
  opt.lanes = std::clamp(lain::core::hardware_lanes() - 1, 1, 4);
  std::filesystem::create_directories(opt.out_dir);

  Tracer tracer(opt.trace);
  Outcome out;
  const std::int64_t t0 = now_ns();
  if (opt.workload == "paper_repro") {
    out = run_paper_repro(opt, tracer);
  } else if (opt.workload == "fabric_paper" ||
             opt.workload == "fabric_loaded") {
    // Warm-up and measured cycles are sized so that a 28 s run holds
    // 100-250 repetitions, enough for a 90th percentile with ten beyond
    // it, each long enough to average over the host's short stalls.
    out = opt.workload == "fabric_paper"
              ? run_fabric(opt, tracer, 16, 0.02, 200, 4000)
              : run_fabric(opt, tracer, 32, 0.08, 100, 400);
  } else if (opt.workload == "serve_jobs") {
    out = run_serve_jobs(opt, tracer);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  const double run_s = seconds_since(t0);

  const double err_pp = table1_err_pp();
  const double error_rate =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 1.0;
  std::string trace_path;
  if (opt.trace) {
    characterize_probe(out, tracer);
    for (const auto& [layer, s] : tracer.self_seconds()) {
      out.add("self_s." + layer, "s", s);
    }
    trace_path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_trace(trace_path)) {
      out.fail("cannot write " + trace_path);
    }
    // Complete the per-layer set: layers this workload does not reach.
    for (const auto& [name, unit] : per_layer_names()) {
      bool have = false;
      for (const Metric& m : out.metrics) have = have || m.name == name;
      if (!have) out.add(name, unit, 0.0, 0);
    }
  } else {
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    out.add("table1_err_pp", "pp", err_pp);
  }

  // Human-readable report.
  std::printf("workload %s seed %llu seconds %.3g trace %d lanes %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.lanes);
  std::printf("fingerprint %s source_hash %s\n", fingerprint.c_str(),
              source_hash.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("  %-36s %16.6g %-14s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("  %-36s %16.6g %-14s n=%lld\n", "error_rate", error_rate,
              "fraction", static_cast<long long>(out.attempted));
  if (!opt.trace) {
    std::printf("  table1_err_pp is deterministic; the NoC model has no "
                "reference measurement (unvalidated, no error figure)\n");
  }
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const std::string& f : out.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("  trace %s (%zu spans)\n", trace_path.c_str(),
                tracer.size());
  }
  std::printf("  run wall %.3f s\n", run_s);

  std::ostringstream metrics;
  std::ostringstream detail;
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    metrics << (i ? ", " : "") << json_str(m.name) << ": {\"value\": "
            << num(m.value) << ", \"unit\": " << json_str(m.unit) << "}";
    detail << (i ? ", " : "") << json_str(m.name) << ": {\"value\": "
           << num(m.value) << ", \"unit\": " << json_str(m.unit)
           << ", \"samples\": " << m.samples << "}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(1, out.attempted)
         << ", \"failed\": " << out.failed << ", \"metrics\": {"
         << metrics.str() << "}}";

  const std::string result_path = opt.out_dir + "/result-" + opt.workload +
                                  "-seed" + std::to_string(opt.seed) +
                                  "-trace" + (opt.trace ? "1" : "0") +
                                  ".json";
  std::ofstream rf(result_path);
  rf << "{\"workload\": " << json_str(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"fingerprint\": " << fingerprint
     << ", \"source_hash\": " << json_str(source_hash)
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"error_rate\": " << num(error_rate) << ", \"metrics\": {"
     << detail.str() << "}}\n";

  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_perfbench: %s\n", e.what());
    return 4;
  }
}
