// serve_jobs — an in-process SweepService (2 workers) on a scratch
// UNIX socket, driven by two Client connections in a closed loop: a
// client submits its next job only after the previous one's `done`
// frame.  The two clients go in lockstep rounds (both submit, both
// wait for their `done`), cycling [streaming, streaming, short]:
//   * streaming: one injection_sweep point on the 5x5 mesh with a
//     20-cycle metrics window (a few hundred window frames per job);
//   * short: a warm-cache breakeven or segmentation table.
// Two streaming jobs in three put both the median and the 90th
// percentile inside the streaming mode, so neither sits on the gap
// between the two modes.  A short job takes about 0.1 ms, almost all
// of it cross-thread wake-ups, which swing by 2x with the host's load
// between runs; a median inside that mode was not steady.  Without the
// lockstep, the share of streaming jobs that overlap the other
// client's streaming job drifts from run to run, and so does the
// median.
//
// Output checks: every job ends in state `done`, every frame parses,
// and every summary frame has packets_injected == packets_ejected.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/context.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/scenario_json.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace perfbench {

namespace {

namespace core = lain::core;
namespace serve = lain::serve;

struct JobRecord {
  bool streaming = false;
  std::int64_t submit_ns = 0, accepted_ns = -1, started_ns = -1,
               done_ns = -1;
  std::int64_t frames = 0, bytes = 0;
  std::int64_t node_cycles = 0;
  std::string error;  // empty when every check held
};

std::string field(const std::vector<core::JsonField>& fields,
                  const std::string& key) {
  for (const core::JsonField& f : fields) {
    if (f.key == key) return f.text;
  }
  return "";
}

std::string job_line(int kind, const Options& opt) {
  switch (kind) {
    case 0:
      return "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
             "\"rates\":\"0.05\",\"patterns\":\"uniform\",\"schemes\":"
             "\"sdpc\",\"metrics-window\":\"20\",\"seed\":\"" +
             std::to_string(opt.seed) + "\"}";
    case 1:
      return "{\"type\":\"submit\",\"scenario\":\"breakeven\"}";
    default:
      return "{\"type\":\"submit\",\"scenario\":\"segmentation\"}";
  }
}

// One job, submit to done frame, on a connection with nothing else
// outstanding.
JobRecord run_job(serve::Client& client, int kind, const Options& opt,
                  Tracer& tracer, std::int64_t id) {
  JobRecord rec;
  rec.streaming = kind == 0;
  Tracer::Span job = tracer.span("serve", "serve.job", id);
  rec.submit_ns = now_ns();
  if (!client.send_line(job_line(kind, opt))) {
    rec.error = "submit failed";
    return rec;
  }
  std::int64_t nodes = 0;
  bool saw_summary = false;
  std::string line;
  while (client.read_line(&line)) {
    const std::int64_t t = now_ns();
    ++rec.frames;
    rec.bytes += static_cast<std::int64_t>(line.size()) + 1;
    try {
      const std::vector<core::JsonField> f = core::parse_flat_json_object(line);
      const std::string type = field(f, "type");
      if (type == "accepted") {
        rec.accepted_ns = t;
      } else if (type == "started") {
        if (rec.started_ns < 0) rec.started_ns = t;
      } else if (type == "manifest") {
        nodes = std::stoll(field(f, "radix_x")) *
                std::stoll(field(f, "radix_y"));
      } else if (type == "summary") {
        saw_summary = true;
        rec.node_cycles += nodes * std::stoll(field(f, "cycles"));
        if (field(f, "packets_injected") != field(f, "packets_ejected")) {
          rec.error = "summary with packets_injected != packets_ejected";
        }
      } else if (type == "error") {
        rec.error = "error frame: " + field(f, "message");
      } else if (type == "done") {
        rec.done_ns = t;
        if (field(f, "state") != "done") {
          rec.error = "job ended in state " + field(f, "state");
        }
      }
    } catch (const std::exception& e) {
      rec.error = std::string("malformed frame: ") + e.what();
    }
    if (rec.done_ns >= 0) break;
  }
  if (rec.done_ns < 0 && rec.error.empty()) rec.error = "no done frame";
  if (rec.streaming && rec.error.empty() &&
      (!saw_summary || rec.started_ns < 0)) {
    rec.error = "streaming job without started/summary frames";
  }
  if (rec.accepted_ns >= 0) {
    tracer.interval("serve", "serve.accept", id, rec.submit_ns,
                    rec.accepted_ns);
  }
  if (rec.started_ns >= 0) {
    tracer.interval("serve", "serve.queue", id, rec.accepted_ns,
                    rec.started_ns);
    tracer.interval("serve", "serve.exec", id, rec.started_ns, rec.done_ns);
  }
  return rec;
}

struct Phase {
  std::vector<JobRecord> jobs;
  double wall = 0.0;
};

// Both clients submit one job per round and wait for each other before
// the next round, so which jobs run side by side is fixed by the
// cycle, not by the two loops drifting in and out of phase.
class Rounds {
 public:
  explicit Rounds(int parties) : parties_(parties) {}
  // Blocks until every party has arrived; the last one decides, through
  // `stop`, whether another round follows.  Returns that decision.
  bool next(const std::function<bool()>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::int64_t round = round_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++round_;
      stopped_ = stop();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return round_ != round; });
    }
    return !stopped_;
  }

 private:
  const int parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::int64_t round_ = 0;
  bool stopped_ = false;
};

// Job kind of round n for client c: streaming, streaming, then a short
// job (breakeven and segmentation in turn, the clients out of step).
int job_kind(std::int64_t n, std::size_t c) {
  if (n % 3 < 2) return 0;
  return 1 + static_cast<int>((n / 3 + static_cast<std::int64_t>(c)) % 2);
}

// Both clients in a closed loop, round by round, until `seconds` have
// passed; the round in flight finishes.
Phase closed_loop(std::vector<std::unique_ptr<serve::Client>>& clients,
                  const Options& opt, Tracer& tracer, double seconds,
                  std::int64_t first_id) {
  std::vector<std::vector<JobRecord>> per_client(clients.size());
  const std::int64_t t0 = now_ns();
  std::atomic<bool> broken{false};
  Rounds rounds(static_cast<int>(clients.size()));
  const auto stop = [&] {
    return broken.load() || seconds_since(t0) >= seconds;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::int64_t n = 0;
      do {
        const std::int64_t id =
            first_id + static_cast<std::int64_t>(c) * 1000000 + n;
        try {
          per_client[c].push_back(
              run_job(*clients[c], job_kind(n, c), opt, tracer, id));
        } catch (const std::exception& e) {
          per_client[c].emplace_back();
          per_client[c].back().error = e.what();
        }
        if (!per_client[c].back().error.empty() &&
            per_client[c].back().done_ns < 0) {
          broken = true;  // the connection is unusable
        }
        ++n;
      } while (rounds.next(stop));
    });
  }
  for (std::thread& t : threads) t.join();
  Phase p;
  p.wall = seconds_since(t0);
  for (auto& v : per_client) {
    for (JobRecord& r : v) p.jobs.push_back(std::move(r));
  }
  return p;
}

std::vector<double> latencies_s(const Phase& p) {
  std::vector<double> v;
  for (const JobRecord& r : p.jobs) {
    if (r.done_ns >= 0) {
      v.push_back(static_cast<double>(r.done_ns - r.submit_ns) * 1e-9);
    }
  }
  return v;
}

void check(const Phase& p, Outcome& out) {
  for (const JobRecord& r : p.jobs) {
    ++out.attempted;
    if (!r.error.empty()) out.fail(r.error);
  }
}

// Session state, torn down in reverse order of construction.
struct Session {
  std::unique_ptr<core::LainContext> ctx;
  std::unique_ptr<serve::SweepService> service;
  std::vector<std::unique_ptr<serve::Client>> clients;

  ~Session() {
    clients.clear();
    if (service) service->stop();
    service.reset();
    ctx.reset();
  }
};

// Context + budget, the warm cache (every job kind once, directly),
// service start and both connections.
void set_up(Session& s, const Options& opt, const std::string& socket) {
  s.ctx = std::make_unique<core::LainContext>(
      core::ContextOptions{opt.lanes});
  const core::ScenarioRegistry& reg = core::ScenarioRegistry::builtin();
  for (int kind = 0; kind < 3; ++kind) {
    std::vector<core::JsonField> fields =
        core::parse_flat_json_object(job_line(kind, opt));
    const core::ScenarioJobSpec job =
        core::scenario_job_from_fields(reg, fields, {"type", "metrics-window"});
    const core::ScenarioSpec spec = core::build_scenario_spec(reg, job, {});
    const core::SweepEngine engine = s.ctx->make_engine(spec.threads);
    (void)reg.find(job.scenario)->run(*s.ctx, spec, engine);
  }
  serve::ServeOptions so;
  so.socket_path = socket;
  so.workers = 2;
  s.service = std::make_unique<serve::SweepService>(*s.ctx, reg, so);
  s.service->start();
  for (int c = 0; c < 2; ++c) {
    s.clients.push_back(
        std::make_unique<serve::Client>(socket, /*retries=*/50,
                                        /*backoff_ms=*/2));
  }
}

}  // namespace

Outcome run_serve_jobs(const Options& opt, Tracer& tracer) {
  Outcome out;
  const std::string socket =
      opt.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  // The manifest's revision lookup runs once per process; do it
  // before anything is timed.
  (void)lain::telemetry::git_describe();

  // The session's set-up, then more samples of it (a second service on
  // its own socket, started and stopped) between segments of the timed
  // loop, so its median sees the same host conditions as the jobs.
  std::vector<double> setups;
  const auto timed_set_up = [&](const std::string& path) {
    auto s = std::make_unique<Session>();
    const std::int64_t t0 = now_ns();
    set_up(*s, opt, path);
    setups.push_back(seconds_since(t0));
    return s;
  };
  std::unique_ptr<Session> session = timed_set_up(socket);

  Tracer none(false);
  constexpr int kSegments = static_cast<int>(kMaxSegments);
  const double segment_s =
      opt.seconds * (opt.trace ? kTracedLoopShare : 1.0) / kSegments;
  // Each timing metric is taken per segment and reported as the median
  // of the segments, so a host slow spell over one or two segments does not
  // move it.
  Phase untraced;
  std::vector<double> seg_p50, seg_p90, seg_jobs_per_s, seg_mnode_per_s;
  for (int k = 0; k < kSegments; ++k) {
    Phase seg =
        closed_loop(session->clients, opt, none, segment_s, k * 10000000LL);
    const std::vector<double> seg_lat = latencies_s(seg);
    std::int64_t node_cycles = 0;
    for (const JobRecord& r : seg.jobs) node_cycles += r.node_cycles;
    seg_p50.push_back(median(seg_lat));
    seg_p90.push_back(percentile(seg_lat, 0.9));
    seg_jobs_per_s.push_back(
        seg.wall > 0.0 ? static_cast<double>(seg_lat.size()) / seg.wall
                       : 0.0);
    seg_mnode_per_s.push_back(
        seg.wall > 0.0 ? static_cast<double>(node_cycles) / seg.wall * 1e-6
                       : 0.0);
    untraced.wall += seg.wall;
    for (JobRecord& r : seg.jobs) untraced.jobs.push_back(std::move(r));
    if (k + 1 < kSegments) (void)timed_set_up(socket + ".setup");
  }
  check(untraced, out);
  const std::vector<double> lat = latencies_s(untraced);
  const auto n = static_cast<std::int64_t>(lat.size());
  const double p50 = median(seg_p50);
  out.notes.push_back(distribution_note("job", lat));

  if (!opt.trace) {
    out.add("setup_s", "s", median(setups),
            static_cast<std::int64_t>(setups.size()));
    out.add("repro_s", "s", p50, n);
    out.add("sim_mnode_cycles_per_s", "Mnode-cycles/s",
            median(seg_mnode_per_s), n);
    out.add("job_latency_p50_ms", "ms", p50 * 1e3, n);
    out.add("job_latency_p90_ms", "ms", median(seg_p90) * 1e3, n);
    out.add("jobs_per_s", "jobs/s", median(seg_jobs_per_s), n);
  } else {
    const Phase traced =
        closed_loop(session->clients, opt, tracer,
                    opt.seconds * kTracedLoopShare, 1000000000);
    check(traced, out);
    const double traced_p50 = median(latencies_s(traced));
    out.add("trace.overhead_share", "fraction",
            p50 > 0.0 ? (traced_p50 - p50) / p50 : 0.0);

    std::vector<double> accept, queue, exec;
    double frames = 0.0, bytes = 0.0;
    for (const JobRecord& r : traced.jobs) {
      frames += static_cast<double>(r.frames);
      bytes += static_cast<double>(r.bytes);
      if (r.accepted_ns >= 0) {
        accept.push_back(static_cast<double>(r.accepted_ns - r.submit_ns));
      }
      if (r.started_ns >= 0 && r.done_ns >= 0) {
        queue.push_back(static_cast<double>(r.started_ns - r.accepted_ns));
        exec.push_back(static_cast<double>(r.done_ns - r.started_ns));
      }
    }
    const double jobs = std::max<double>(1.0, traced.jobs.size());
    out.add("serve.accept_ms", "ms", median(accept) * 1e-6,
            static_cast<std::int64_t>(accept.size()));
    out.add("serve.queue_wait_ms", "ms", median(queue) * 1e-6,
            static_cast<std::int64_t>(queue.size()));
    out.add("serve.exec_ms", "ms", median(exec) * 1e-6,
            static_cast<std::int64_t>(exec.size()));
    out.add("serve.frames_per_job", "frames", frames / jobs);
    out.add("serve.bytes_per_job", "bytes", bytes / jobs);
    out.add("serve.stream_mb_per_s", "MB/s",
            traced.wall > 0.0 ? bytes / traced.wall * 1e-6 : 0.0);
    const serve::ServiceStats st = session->service->stats();
    out.add("serve.cache_hit_ratio", "fraction",
            st.cache_lookups > 0 ? static_cast<double>(st.cache_hits) /
                                       static_cast<double>(st.cache_lookups)
                                 : 0.0);
  }

  const std::int64_t accepted = session->service->stats().jobs_accepted;
  session.reset();  // clients close, the service drains and stops
  const std::int64_t submitted = out.attempted;
  if (accepted != submitted) {
    out.fail("service accepted " + std::to_string(accepted) + " of " +
             std::to_string(submitted) + " submitted jobs");
  }
  return out;
}

}  // namespace perfbench
