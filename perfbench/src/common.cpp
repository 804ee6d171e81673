// common.cpp — clocks, order statistics, the span tracer and the
// host/build fingerprint shared by every workload.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/thread_budget.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::vector<std::vector<double>> segments(const std::vector<double>& seconds,
                                          std::size_t min_size) {
  const std::size_t n = seconds.size();
  const std::size_t k = std::clamp<std::size_t>(
      n / std::max<std::size_t>(min_size, 1), 1, kMaxSegments);
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < k; ++i) {
    out.emplace_back(
        seconds.begin() + static_cast<std::ptrdiff_t>(i * n / k),
        seconds.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / k));
  }
  return out;
}

double ops_per_s(const std::vector<double>& seconds) {
  double busy = 0.0;
  for (double s : seconds) busy += s;
  return busy > 0.0 ? static_cast<double>(seconds.size()) / busy : 0.0;
}

std::string distribution_note(const std::string& what,
                              const std::vector<double>& seconds) {
  const std::size_t n = seconds.size();
  const auto third = [&](std::size_t k) {
    return median(std::vector<double>(
        seconds.begin() + static_cast<std::ptrdiff_t>(k * n / 3),
        seconds.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / 3)));
  };
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s ms: n=%zu min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g "
                "thirds=%.4g/%.4g/%.4g",
                what.c_str(), n, percentile(seconds, 0.0) * 1e3,
                percentile(seconds, 0.25) * 1e3, median(seconds) * 1e3,
                percentile(seconds, 0.75) * 1e3, percentile(seconds, 1.0) * 1e3,
                third(0) * 1e3, third(1) * 1e3, third(2) * 1e3);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

const std::vector<std::string>& paper_scenarios() {
  static const std::vector<std::string> names = {
      "table1",          "segmentation",   "breakeven",
      "static_probability", "injection_sweep", "idle_histogram",
      "node_scaling",    "corner_sweep"};
  return names;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

// Open spans of the calling thread, innermost last (one tracer is
// live per process, so the stack needs no tracer key).
thread_local std::vector<std::size_t> t_open;

int thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = ids.find(std::this_thread::get_id());
  if (it == ids.end()) {
    it = ids.emplace(std::this_thread::get_id(),
                     static_cast<int>(ids.size()))
             .first;
  }
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::size_t Tracer::open(const char* layer, std::string name,
                         std::int64_t id, std::int64_t start_ns) {
  Record r;
  r.layer = layer;
  r.name = std::move(name);
  r.id = id;
  r.start_ns = start_ns;
  r.parent = t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  r.thread = thread_index();
  const std::lock_guard<std::mutex> lock(mu_);
  if (origin_ns_ < 0) origin_ns_ = start_ns;
  records_.push_back(std::move(r));
  return records_.size() - 1;
}

void Tracer::close(std::size_t index, std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_[index].end_ns = end_ns;
}

Tracer::Span Tracer::span(const char* layer, std::string name,
                          std::int64_t id) {
  if (!enabled_) return Span();
  const std::size_t index = open(layer, std::move(name), id, now_ns());
  t_open.push_back(index);
  return Span(this, index);
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  tracer_->close(index_, now_ns());
  if (!t_open.empty() && t_open.back() == index_) t_open.pop_back();
  tracer_ = nullptr;
}

void Tracer::interval(const char* layer, std::string name, std::int64_t id,
                      std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  close(open(layer, std::move(name), id, start_ns), end_ns);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= 0) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) {
      children[static_cast<std::size_t>(records_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[i]) {
      const Record& k = records_[c];
      if (k.end_ns < 0) continue;
      iv.emplace_back(std::max(k.start_ns, r.start_ns),
                      std::min(k.end_ns, r.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[r.layer] +=
        static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return self;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  r.thread,
                  static_cast<double>(r.start_ns - origin_ns_) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    f << (first ? "\n" : ",\n") << "{\"name\":\"" << json_escape(r.name)
      << "\",\"cat\":\"" << r.layer << "\"," << buf
      << ",\"args\":{\"span\":" << i << ",\"parent\":" << r.parent
      << ",\"id\":" << r.id << "}}";
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string rev = lain::telemetry::git_describe();
  if (rev.empty()) rev = "none";
  std::ostringstream o;
  o << "{\"git_rev\":\"" << json_escape(rev) << "\",\"compiler\":\""
    << json_escape(PERFBENCH_COMPILER) << "\",\"compiler_version\":\""
    << json_escape(__VERSION__) << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\",\"ndebug\":"
#ifdef NDEBUG
    << "true"
#else
    << "false"
#endif
    << ",\"lain_telemetry\":" << LAIN_TELEMETRY << ",\"cpu\":\""
    << json_escape(cpu) << "\",\"nproc\":" << lain::core::hardware_lanes()
    << "}";
  return o.str();
}

}  // namespace perfbench
