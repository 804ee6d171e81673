// bench.hpp — shared pieces of the benchmark program: run options,
// the metric/outcome record every workload returns, host-clock and
// order-statistic helpers, and the span tracer.
//
// The tracer records spans around calls into the library's public
// functions from the benchmark's own code (nothing inside the library
// is instrumented).  A span has a name, a layer, a start and end on
// the host's steady clock, the span that was open on the same thread
// when it began (its parent), and an id shared by every span of one
// repetition or job.  Spans stay in memory until the run ends, then
// go out as Chrome trace-event JSON (opens in Perfetto) and feed the
// per-layer self times.  A disabled tracer records nothing and reads
// no clock, so untraced runs pay nothing for it.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int lanes = 1;            // min(4, nproc - 1): busy threads at most
  std::string out_dir;      // result and trace files go here
};

// In a traced run the untraced loop and the traced loop each run for
// this share of --seconds; the direct probes follow them.
inline constexpr double kTracedLoopShare = 0.25;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::int64_t samples = 1;  // how many measurements the value summarizes
};

// What one workload run produced.  `attempted` counts operations (a
// repetition, a run or a job); `failed` counts the ones that failed
// or whose output check did not hold.
struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure reasons
  std::vector<std::string> notes;     // extra result lines (grids, ...)

  void add(std::string name, std::string unit, double value,
           std::int64_t samples = 1) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
  void fail(const std::string& why);
};

// Host steady clock, nanoseconds.
std::int64_t now_ns();
double seconds_since(std::int64_t t0_ns);

// Order statistics over a copy of `v` (0 for an empty vector).
double median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

// The most segments a run's timed operations are cut into.
inline constexpr std::size_t kMaxSegments = 9;
// Operation times (s, in run order) cut into runs of consecutive
// operations, as many as fit with at least `min_size` in each (1 to
// kMaxSegments; one when fewer than `min_size` operations ran).
std::vector<std::vector<double>> segments(const std::vector<double>& seconds,
                                          std::size_t min_size);
// `stat` of each segment, median of those.  A host slow spell over a
// minority of the segments does not move it; a change that slows every
// operation moves it in full.
template <class Stat>
double segment_median(const std::vector<double>& seconds,
                      std::size_t min_size, Stat stat) {
  std::vector<double> per_segment;
  for (const std::vector<double>& s : segments(seconds, min_size)) {
    per_segment.push_back(stat(s));
  }
  return median(per_segment);
}
// Operations per second over one segment (they run one after another).
double ops_per_s(const std::vector<double>& seconds);
// Minimum segment sizes: a segment median needs a handful of
// operations, a segment's 90th percentile ten operations beyond it.
inline constexpr std::size_t kMedianSegment = 5;
inline constexpr std::size_t kP90Segment = 100;

// One line describing a series of operation times (s, in run order):
// count, min, quartiles, max, and the medians of its first, middle and
// last thirds (a drift within the run shows there).
std::string distribution_note(const std::string& what,
                              const std::vector<double>& seconds);

// Peak resident set size of this process, MB.
double peak_rss_mb();

// The eight paper scenarios, in reproduction order.
const std::vector<std::string>& paper_scenarios();

// Layers a span can belong to (the library's module split).
inline constexpr const char* kLayers[] = {"xbar", "power", "noc",
                                          "parallel", "core", "serve"};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // A span open from construction to destruction (or end()).  Spans
  // opened on one thread nest: the innermost open span is the parent.
  class Span {
   public:
    Span() = default;
    Span(Span&& o) noexcept : tracer_(o.tracer_), index_(o.index_) {
      o.tracer_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    ~Span() { end(); }
    void end();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index)
        : tracer_(tracer), index_(index) {}
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  Span span(const char* layer, std::string name, std::int64_t id);
  // A finished interval measured elsewhere (client-observed frame
  // times), attached under the innermost open span of this thread.
  void interval(const char* layer, std::string name, std::int64_t id,
                std::int64_t start_ns, std::int64_t end_ns);

  // Durations (s) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  // Per-layer self time (s): each span's duration minus the part of
  // it covered by its children, summed by layer.
  std::map<std::string, double> self_seconds() const;
  std::size_t size() const;
  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    std::string layer;
    std::string name;
    std::int64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    std::int64_t parent = -1;  // index into records_, -1 for a root
    int thread = 0;
  };
  std::size_t open(const char* layer, std::string name, std::int64_t id,
                   std::int64_t start_ns);
  void close(std::size_t index, std::int64_t end_ns);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::int64_t origin_ns_ = -1;
};

// Host and build fingerprint, as one JSON object.
std::string fingerprint_json();
// True when the binary is an optimized (NDEBUG) Release build.
bool release_build();

Outcome run_paper_repro(const Options& opt, Tracer& tracer);
Outcome run_fabric(const Options& opt, Tracer& tracer, int radix,
                   double rate, int warmup_cycles, int measure_cycles);
Outcome run_serve_jobs(const Options& opt, Tracer& tracer);

}  // namespace perfbench
