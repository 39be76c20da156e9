// Serving benchmark: drives run_online (sim/online.h) over one seeded
// open-loop workload, checks its outputs, and prints either the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//   serve_bench --workload serve-hot --seed 1 --seconds 10 --trace 0
//               [--out-dir DIR] [--window-order sorted|arrival]
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit code 0 only when every output check passed.  See README.md.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bubbles.h"
#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "exec/plan_cache.h"
#include "layers.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/chrome_trace.h"
#include "sim/online.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }

double median(const std::vector<double>& v) { return h2p::percentile(v, 0.5); }

// ---- host-speed reference -------------------------------------------------
// Host readings on a shared machine drift by tens of percent over minutes.
// Every host time is therefore expressed in reference seconds: the raw time
// scaled by kReferenceMs over the median time of a fixed loop that uses
// nothing from the library, timed in the same process between the measured
// calls.  A change to the library moves the readings; a machine whose cores,
// caches or memory got slower or busier moves the loop too and cancels out.
// Wall times are scaled by the loop's wall time, CPU times by its CPU time.

/// Nominal time of one reference loop, about its median on the 4-core Intel
/// Xeon VM (2 MiB L2 per core) the bounds were set on.
constexpr double kReferenceMs = 12.0;

/// The pointer chase walks one cycle through this many bytes: inside the
/// L2.  A cycle past the L2 followed the other tenants' cache traffic far
/// more than the library's calls did.
constexpr std::size_t kChaseBytes = std::size_t{256} << 10;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

struct ReferenceRun {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Fixed work from fixed xorshift sequences, run on as many threads at once
/// as the measured calls keep busy.  It mixes, in about equal time, the
/// three kinds of work the library's host time goes to: a sort of 40 000
/// doubles and 20 000 scattered table updates (planning), 350 000 dependent
/// loads along one random cycle through kChaseBytes (pointer-heavy
/// simulation state), and filtered max-scans over 16 384 timeline-sized
/// records (the serving loop's timeline walks).  Each of the three alone
/// tracked one workload's drift and missed another's.
/// All memory is allocated up front, so the allocator's state after the
/// library's calls cannot change the loop's time.
class Reference {
 public:
  explicit Reference(unsigned threads) : scratch_(threads) {
    std::vector<std::uint32_t> order(kChaseBytes / sizeof(std::uint32_t));
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[xorshift(s) % (i + 1)]);
    }
    cycle_.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      cycle_[order[i]] = order[(i + 1) % order.size()];
    }
    records_.resize(16384);
    for (Record& r : records_) {
      r.key = xorshift(s) % 4096;
      r.value = static_cast<double>(xorshift(s) >> 20);
    }
    for (Scratch& sc : scratch_) {
      sc.sorted.resize(40000);
      sc.table.resize(8192);
    }
  }

  /// Bytes the loop keeps allocated.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = cycle_.size() * sizeof(std::uint32_t) + records_.size() * sizeof(Record);
    for (const Scratch& sc : scratch_) {
      n += (sc.sorted.size() + sc.table.size()) * sizeof(double);
    }
    return n;
  }

  /// Wall time until every thread's loop finished, and CPU time of the
  /// calling thread's loop.
  ReferenceRun run() {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < scratch_.size(); ++i) {
      helpers.emplace_back([this, i] { loop(scratch_[i]); });
    }
    const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    loop(scratch_[0]);
    const double cpu_ms = (cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e3;
    for (std::thread& t : helpers) t.join();
    return {seconds_since(t0) * 1e3, cpu_ms};
  }

 private:
  struct Scratch {
    std::vector<double> sorted;
    std::vector<double> table;
    double sink = 0.0;
  };

  /// Same size as a timeline's task record.
  struct Record {
    std::size_t key = 0;
    std::size_t pad[2] = {};
    double value = 0.0;
    double pad2[2] = {};
  };

  void loop(Scratch& sc) const {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (double& d : sc.sorted) d = static_cast<double>(xorshift(s) >> 11);
    std::sort(sc.sorted.begin(), sc.sorted.end());
    std::fill(sc.table.begin(), sc.table.end(), 0.0);
    for (std::size_t i = 0; i < 20000; ++i) {
      sc.table[xorshift(s) % sc.table.size()] += sc.sorted[i];
    }
    for (const double x : sc.table) acc += x;
    std::uint32_t at = 0;
    for (int i = 0; i < 350000; ++i) at = cycle_[at];
    for (std::size_t k = 0; k < 240; ++k) {
      const std::size_t want = k * 37 % 4096;
      double best = 0.0;
      for (const Record& r : records_) {
        if (r.key == want) best = std::max(best, r.value);
      }
      acc += best;
    }
    sc.sink = acc + at;
  }

  std::vector<std::uint32_t> cycle_;
  std::vector<Record> records_;
  std::vector<Scratch> scratch_;
};

/// Factor that turns raw host seconds into reference seconds, given the
/// loop's times (wall or CPU, matching the raw reading).
double to_reference_s(const std::vector<double>& reference_ms) {
  return kReferenceMs / median(reference_ms);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  /// "arrival" lets serve-cold's windows keep deck order (see workloads.cpp).
  std::string window_order = "sorted";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--window-order") {
      if (value != "sorted" && value != "arrival") {
        throw std::invalid_argument("--window-order must be sorted or arrival");
      }
      a.window_order = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// FNV-1a over every modeled output of a call: per-request completions and
/// admission, the merged timeline, and the window sources.
std::uint64_t digest(const h2p::OnlineResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double v) { mix(&v, sizeof v); };
  const auto mix_size = [&mix](std::size_t v) { mix(&v, sizeof v); };
  for (const double c : r.completion_ms) mix_double(c);
  for (const bool a : r.admitted) mix_size(a ? 1 : 0);
  for (const h2p::TaskRecord& t : r.timeline.tasks) {
    mix_size(t.model_idx);
    mix_size(t.seq_in_model);
    mix_size(t.proc_idx);
    mix_double(t.start_ms);
    mix_double(t.end_ms);
  }
  for (const h2p::WindowStats& w : r.windows) {
    mix_size(static_cast<std::size_t>(w.source));
    mix_size(w.thermal_bucket);
    mix_size(static_cast<std::size_t>(w.avail_mask));
  }
  return h;
}

/// Output checks; every failure is recorded and fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Every request is either shed (never executed) or finished with a finite
/// latency no earlier than its arrival.
void check_requests(const h2p::OnlineResult& r, std::size_t n, Checks& checks,
                    const std::string& label) {
  std::size_t shed = 0;
  bool sized = r.completion_ms.size() == n && r.admitted.size() == n;
  checks.expect(sized, label + ": result sized to the stream");
  if (!sized) return;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!r.admitted[i]) {
      ++shed;
      continue;
    }
    finite = finite && std::isfinite(r.completion_ms[i]) && r.completion_ms[i] >= 0.0;
  }
  checks.expect(finite, label + ": every admitted request finished with finite latency");
  checks.expect(shed == r.shed_requests, label + ": unadmitted requests equal shed_requests");
}

/// Registry mirrors of the plan-cache decisions equal the result's counts.
void check_registry(const h2p::OnlineResult& r, Checks& checks,
                    const std::string& label) {
  h2p::obs::Registry& reg = h2p::obs::Registry::global();
  const auto value = [&reg](const char* name) {
    return static_cast<long long>(reg.counter(name).value());
  };
  const long long windows = static_cast<long long>(r.windows.size());
  const long long cold = r.replans - r.warm_hits - r.degraded_hits;
  checks.expect(value("online.windows") == windows, label + ": online.windows");
  checks.expect(value("online.cache_hits") == r.cache_hits, label + ": online.cache_hits");
  checks.expect(value("online.warm_hits") == r.warm_hits, label + ": online.warm_hits");
  checks.expect(value("online.degraded_replans") == r.degraded_hits,
                label + ": online.degraded_replans");
  checks.expect(value("online.cold_replans") == cold, label + ": online.cold_replans");
  checks.expect(value("plan_cache.hits") == r.cache_hits, label + ": plan_cache.hits");
  checks.expect(value("plan_cache.hits") + value("plan_cache.misses") == windows,
                label + ": plan_cache lookups == windows");
  checks.expect(value("plan_cache.warm_hits") >= r.warm_hits,
                label + ": plan_cache.warm_hits");
  checks.expect(value("online.shed_requests") ==
                    static_cast<long long>(r.shed_requests),
                label + ": online.shed_requests");
}

/// One served stream: the requests and what run_online made of them.
struct Served {
  std::vector<h2p::OnlineRequest> stream;
  h2p::OnlineResult result;
};

/// Latency statistics pooled over the sub-streams of one rate.
struct Latency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t sent = 0;
  std::size_t samples = 0;
  std::size_t above_p99 = 0;
  double slo_attainment = 0.0;
  double served_frac = 0.0;
  /// Every sub-stream completed at least 97% of its offered rate over its
  /// span (completions keep pace with arrivals).
  bool backlog_stable = true;
};

Latency pooled_latency(const std::vector<const Served*>& runs) {
  Latency out;
  std::vector<double> lat;
  std::size_t on_time = 0;
  for (const Served* run : runs) {
    const std::vector<h2p::OnlineRequest>& stream = run->stream;
    const h2p::OnlineResult& r = run->result;
    double last_finish = 0.0;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (!r.admitted[i]) continue;
      const double c = r.completion_ms[i];
      lat.push_back(c);
      ++completed;
      last_finish = std::max(last_finish, stream[i].arrival_ms + c);
      if (stream[i].arrival_ms + c <= stream[i].deadline_ms + 1e-9) ++on_time;
    }
    const double t0 = stream.front().arrival_ms;
    const double offered =
        static_cast<double>(stream.size() - 1) / (stream.back().arrival_ms - t0);
    const double served = static_cast<double>(completed - 1) / (last_finish - t0);
    out.backlog_stable = out.backlog_stable && served >= 0.97 * offered;
    out.sent += stream.size();
  }
  out.samples = lat.size();
  out.p50_ms = h2p::percentile(lat, 0.5);
  out.p99_ms = h2p::percentile(lat, 0.99);
  out.above_p99 = static_cast<std::size_t>(
      std::count_if(lat.begin(), lat.end(), [&](double v) { return v > out.p99_ms; }));
  out.slo_attainment = static_cast<double>(on_time) / static_cast<double>(out.sent);
  out.served_frac = static_cast<double>(lat.size()) / static_cast<double>(out.sent);
  return out;
}

/// Modeled metrics pool this many independent sub-streams per rate; the
/// first is the timed nominal stream.
constexpr std::size_t kSubStreams = 4;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return seed + (static_cast<std::uint64_t>(k) << 32);
}

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Bench {
 public:
  Bench(const Args& args, Clock::time_point process_start)
      : args_(args),
        start_(process_start),
        w_(make_workload(args.workload)) {
    if (args.window_order == "arrival") w_.sorted_windows = false;
  }

  int run() {
    set_up();
    if (args_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
    return finish();
  }

 private:
  // ---- set-up: zoo, stream, faults, pool, warm-up call -------------------
  /// Serving set-ups per run; setup_s takes their median.
  static constexpr int kSetUps = 9;
  /// Reference loops before each set-up: a set-up has a tenth as many
  /// samples as the timed calls, and single loops on two threads spiked to
  /// twice their time.
  static constexpr int kReferencesPerSetUp = 3;

  /// setup_s is the one-time part (process start to a built zoo) plus the
  /// median of kSetUps serving set-ups, in reference seconds.
  void set_up() {
    const std::string log_path =
        args_.out_dir + "/" + w_.name + "-seed" + std::to_string(args_.seed) +
        (args_.trace ? "-trace" : "") + ".log.jsonl";
    std::ofstream(log_path, std::ios::trunc).close();
    h2p::obs::Log::global().set_sink_file(log_path);

    for (const h2p::ModelId id : h2p::all_model_ids()) (void)h2p::zoo_model(id);
    for (const h2p::ModelId id : h2p::extended_model_ids()) (void)h2p::zoo_model(id);
    const double once_s = seconds_since(start_);
    reference_ = std::make_unique<Reference>(ref_threads());
    // Idle cores of a virtual machine take about a second of load to come
    // up to speed (four reference threads ran 4x slower until then); warm
    // them before anything is timed.
    const Clock::time_point warm0 = Clock::now();
    while (seconds_since(warm0) < 1.5) (void)reference_->run();

    std::vector<double> serving_s;
    std::vector<double> ref_ms;
    for (int i = 0; i < kSetUps; ++i) {
      for (int k = 0; k < kReferencesPerSetUp; ++k) {
        ref_ms.push_back(reference_->run().wall_ms);
      }
      const Clock::time_point t0 = Clock::now();
      set_up_serving();
      serving_s.push_back(seconds_since(t0));
      const std::string label = "warm-up call " + std::to_string(i);
      check_registry(first_, checks_, label);
      check_requests(first_, stream_.size(), checks_, label);
      if (w_.weather) {
        const auto violation = h2p::verify_timeline_against_faults(first_.timeline, faults_);
        checks_.expect(!violation.has_value(),
                       label + ": fault safety: " + violation.value_or(std::string()));
      }
      if (i == 0) digest_ = digest(first_);
      checks_.expect(digest(first_) == digest_, label + ": modeled outputs identical");
    }
    setup_s_ = (once_s + median(serving_s)) * to_reference_s(ref_ms);
    std::printf("set-up: once %.4f s, serving median %.4f s, reference median %.3f ms,"
                " setup_s %.4f\n",
                once_s, median(serving_s), median(ref_ms), setup_s_);
  }

  /// Threads a call keeps busy: the caller plus the prefetch pool.
  unsigned ref_threads() const { return 1 + (w_.async_planning ? w_.pool_threads : 0); }

  /// Stream, faults, pool, options and the warm-up call (registry on).
  void set_up_serving() {
    pool_.reset();
    stream_ = make_stream(w_, args_.seed, w_.nominal_rps, w_.deadline_ms);
    faults_ = make_faults(w_, args_.seed, stream_);
    if (w_.async_planning) pool_ = std::make_unique<h2p::ThreadPool>(w_.pool_threads);
    options_ = make_options(w_, faults_, pool_.get());

    h2p::obs::Registry& reg = h2p::obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
    first_ = call(stream_, options_);
    reg.set_enabled(false);
  }

  /// A run_online call that throws ends the run without a result, so a
  /// printed result always has failed == 0.
  h2p::OnlineResult call(const std::vector<h2p::OnlineRequest>& stream,
                         const h2p::OnlineOptions& options) {
    ++attempted_;
    return h2p::run_online(w_.soc, stream, options);
  }

  // ---- timed calls --------------------------------------------------------
  /// Raw per-call readings plus the reference loop timed before each call.
  struct Timing {
    std::vector<double> windows_per_s;
    std::vector<double> cpu_us_per_window;
    std::vector<double> reference_ms;
    std::vector<double> reference_cpu_ms;

    /// Medians over the calls, in reference seconds.
    [[nodiscard]] double windows_per_s_ref() const {
      return median(windows_per_s) / to_reference_s(reference_ms);
    }
    [[nodiscard]] double cpu_us_per_window_ref() const {
      return median(cpu_us_per_window) * to_reference_s(reference_cpu_ms);
    }
  };

  /// One timed call on the nominal stream, wrapped in the benchmark's call
  /// span (inert unless the tracer is on), after one reference loop.
  h2p::OnlineResult timed_call(Timing& t) {
    const ReferenceRun ref = reference_->run();
    t.reference_ms.push_back(ref.wall_ms);
    t.reference_cpu_ms.push_back(ref.cpu_ms);
    const double cpu0 = process_cpu_s();
    const Clock::time_point w0 = Clock::now();
    h2p::OnlineResult r;
    {
      const h2p::obs::Span span(kCallSpan);
      r = call(stream_, options_);
    }
    const double wall = seconds_since(w0);
    const double cpu = process_cpu_s() - cpu0;
    const double windows = static_cast<double>(r.windows.size());
    t.windows_per_s.push_back(windows / wall);
    t.cpu_us_per_window.push_back(cpu * 1e6 / windows);
    checks_.expect(digest(r) == digest_, "modeled outputs identical across calls");
    return r;
  }

  /// At least three calls, then until `budget_s` has passed since `t0`.
  static bool more_calls(const Timing& t, Clock::time_point t0, double budget_s) {
    return t.windows_per_s.size() < 3 || seconds_since(t0) < budget_s;
  }

  /// Serves sub-stream `k` of the seed at `rate` with relative deadline
  /// `deadline_ms` and checks the result.
  Served serve(std::size_t k, double rate, double deadline_ms) {
    Served out;
    out.stream = make_stream(w_, sub_seed(args_.seed, k), rate, deadline_ms);
    const h2p::FaultScript faults = make_faults(w_, sub_seed(args_.seed, k), out.stream);
    out.result = call(out.stream, make_options(w_, faults, pool_.get()));
    const std::string label =
        "sub-stream " + std::to_string(k) + " at " + std::to_string(rate) + " rps";
    check_requests(out.result, out.stream.size(), checks_, label);
    if (w_.weather) {
      checks_.expect(
          !h2p::verify_timeline_against_faults(out.result.timeline, faults).has_value(),
          label + ": fault safety");
    }
    return out;
  }

  void run_untraced() {
    Timing t;
    const Clock::time_point t0 = Clock::now();
    while (more_calls(t, t0, args_.seconds)) (void)timed_call(t);
    std::printf("timed calls: %zu, raw host windows/s median %.1f, reference median %.3f ms"
                " (nominal %.1f ms)\n",
                t.windows_per_s.size(), median(t.windows_per_s), median(t.reference_ms),
                kReferenceMs);

    if (w_.async_planning) {
      h2p::OnlineOptions serial = options_;
      serial.async_planning = false;
      serial.pool = nullptr;
      checks_.expect(digest(call(stream_, serial)) == digest_,
                     "serial call digest equals async digest");
    }

    std::vector<Served> extra;
    for (std::size_t k = 1; k < kSubStreams; ++k) {
      extra.push_back(serve(k, w_.nominal_rps, w_.deadline_ms));
    }
    const Served nominal{stream_, first_};
    std::vector<const Served*> runs = {&nominal};
    for (const Served& s : extra) runs.push_back(&s);
    const Latency lat = pooled_latency(runs);
    std::printf("latency samples: %zu completed of %zu sent, %zu above p99\n",
                lat.samples, lat.sent, lat.above_p99);
    const double max_rate = max_rate_rps();

    metrics_ = {
        {"lat_p50_ms", lat.p50_ms, "ms"},
        {"lat_p99_ms", lat.p99_ms, "ms"},
        {"slo_attainment", lat.slo_attainment, "fraction"},
        {"max_rate_rps", max_rate, "1/s"},
        {"served_frac", lat.served_frac, "fraction"},
        {"host_windows_per_s", t.windows_per_s_ref(), "1/s"},
        {"host_cpu_us_per_window", t.cpu_us_per_window_ref(), "us"},
        {"setup_s", setup_s_, "s"},
    };
  }

  /// Whether one ladder rung keeps the pooled p99 within the latency limit
  /// (shed requests count as misses, so more than 1% shed fails the rung)
  /// without a growing backlog.  Requests are due at the latency limit.
  bool rung_passes(double rate) {
    std::vector<Served> served;
    for (std::size_t k = 0; k < kSubStreams; ++k) {
      served.push_back(serve(k, rate, w_.latency_limit_ms));
    }
    std::vector<const Served*> runs;
    for (const Served& s : served) runs.push_back(&s);
    const Latency lat = pooled_latency(runs);
    std::printf("ladder %6.2f rps: p99 %10.2f ms served %.4f backlog %s\n", rate,
                lat.p99_ms, lat.served_frac, lat.backlog_stable ? "stable" : "growing");
    return lat.served_frac >= 0.99 && lat.p99_ms <= w_.latency_limit_ms &&
           lat.backlog_stable;
  }

  /// Highest passing rung of the fixed ladder.  Latency grows with the rate
  /// above the first rung (the nominal rate), so the passing rungs form a
  /// prefix and a binary search finds its end in log2(rungs) steps.
  double max_rate_rps() {
    const std::vector<double>& ladder = w_.ladder_rps;
    if (!rung_passes(ladder.front())) return 0.0;
    std::size_t pass = 0;
    std::size_t fail = ladder.size();
    while (fail - pass > 1) {
      const std::size_t mid = pass + (fail - pass) / 2;
      (rung_passes(ladder[mid]) ? pass : fail) = mid;
    }
    return ladder[pass];
  }

  // ---- traced run -----------------------------------------------------------
  void run_traced() {
    Timing plain;
    Clock::time_point t0 = Clock::now();
    while (more_calls(plain, t0, args_.seconds / 2.0)) (void)timed_call(plain);

    // Every traced call starts from an empty span buffer and zeroed
    // counters, so memory stays bounded and counts are per call; the last
    // call's spans are exported as a Chrome trace at the end.
    h2p::obs::Tracer& tracer = h2p::obs::Tracer::global();
    h2p::obs::Registry& reg = h2p::obs::Registry::global();
    std::vector<CallProfile> profiles;
    std::map<std::string, double> counters;
    h2p::OnlineResult last;
    Timing traced;
    t0 = Clock::now();
    while (more_calls(traced, t0, args_.seconds / 2.0)) {
      tracer.clear();
      reg.reset();
      tracer.set_enabled(true);
      reg.set_enabled(true);
      h2p::OnlineResult r = timed_call(traced);
      tracer.set_enabled(false);
      reg.set_enabled(false);
      check_registry(r, checks_, "traced call");
      profiles.push_back(profile_call(tracer.events()));
      if (counters.empty()) {
        for (const char* name :
             {"plan_cache.hits", "plan_cache.misses", "plan_cache.warm_hits",
              "plan_cache.evictions", "des.tasks", "pool.jobs", "pool.help_runs"}) {
          counters[name] = static_cast<double>(reg.counter(name).value());
        }
      }
      last = std::move(r);
    }
    const std::string trace_path = args_.out_dir + "/" + w_.name + "-seed" +
                                   std::to_string(args_.seed) + ".trace.json";
    h2p::write_merged_chrome_trace(last.timeline, w_.soc, tracer, trace_path);
    tracer.clear();

    // Workloads that do not track drift in their timed calls get one extra
    // call with tracking on, which must not change any modeled output.
    h2p::OnlineResult tracked;
    if (!options_.drift_tracking) {
      h2p::OnlineOptions with_drift = options_;
      with_drift.drift_tracking = true;
      tracked = call(stream_, with_drift);
      checks_.expect(digest(tracked) == digest_,
                     "drift tracking leaves modeled outputs unchanged");
    }
    const h2p::OnlineResult& drift_src = options_.drift_tracking ? first_ : tracked;

    print_layer_table(profiles);
    per_layer_metrics(profiles, counters, plain, traced, drift_src);
    std::printf("per-layer trace: %s\n", trace_path.c_str());
  }

  /// Median over traced calls of a per-call quantity.
  static double per_call(const std::vector<CallProfile>& profiles,
                         const std::function<double(const CallProfile&)>& f) {
    std::vector<double> v;
    v.reserve(profiles.size());
    for (const CallProfile& p : profiles) v.push_back(f(p));
    return median(std::move(v));
  }

  void print_layer_table(const std::vector<CallProfile>& profiles) {
    std::set<std::string> names;
    for (const CallProfile& p : profiles) {
      for (const auto& [name, s] : p.spans) names.insert(name);
    }
    std::printf("%-18s %-24s %10s %12s %12s   (per call, median of %zu traced calls)\n",
                "layer", "span", "count", "total_ms", "self_ms", profiles.size());
    std::vector<std::pair<std::string, std::string>> rows;
    for (const std::string& name : names) rows.emplace_back(layer_of(name), name);
    std::sort(rows.begin(), rows.end());
    for (const auto& [layer, name] : rows) {
      const double count = per_call(profiles, [&](const CallProfile& p) {
        return static_cast<double>(p.span(name).count);
      });
      const double total = per_call(profiles, [&](const CallProfile& p) {
        return p.span(name).total_us / 1e3;
      });
      const double self = per_call(profiles, [&](const CallProfile& p) {
        return p.span(name).self_us / 1e3;
      });
      std::printf("%-18s %-24s %10.0f %12.3f %12.3f\n", layer.c_str(), name.c_str(),
                  count, total, self);
    }
  }

  /// Host cost of plan-cache keys and lookups, and of lowering, timed from
  /// outside run_online on the workload's own windows.
  struct OutsideTimings {
    double key_us = 0.0;
    double lookup_us = 0.0;
    double compile_us = 0.0;
  };

  OutsideTimings time_outside() {
    std::vector<std::vector<const h2p::Model*>> windows;
    for (std::size_t i = 0; i < stream_.size(); i += w_.window) {
      std::vector<const h2p::Model*> models;
      for (std::size_t k = i; k < std::min(stream_.size(), i + w_.window); ++k) {
        models.push_back(stream_[k].model);
      }
      windows.push_back(std::move(models));
    }
    const h2p::PlannerOptions& knobs = options_.planner;
    h2p::exec::PlanCache cache(options_.plan_cache_capacity);
    std::vector<std::string> keys;
    struct Planned {
      std::unique_ptr<h2p::StaticEvaluator> eval;
      h2p::PipelinePlan plan;
    };
    std::vector<Planned> planned;
    for (const auto& models : windows) {
      keys.push_back(h2p::exec::PlanCache::make_key(w_.soc, models, knobs));
      if (planned.size() >= 16 || cache.peek(keys.back()) != nullptr) continue;
      Planned p{std::make_unique<h2p::StaticEvaluator>(w_.soc, models), {}};
      p.plan = h2p::Hetero2PipePlanner(*p.eval, knobs).plan().plan;
      cache.insert(keys.back(), h2p::exec::compile(p.plan, *p.eval));
      planned.push_back(std::move(p));
    }

    OutsideTimings out;
    std::vector<double> key_us, lookup_us, compile_us;
    std::size_t sink = 0;
    for (int pass = 0; pass < 15; ++pass) {
      Clock::time_point t0 = Clock::now();
      for (const auto& models : windows) {
        sink += h2p::exec::PlanCache::make_key(w_.soc, models, knobs).size();
      }
      key_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(windows.size()));

      t0 = Clock::now();
      for (const std::string& key : keys) {
        const h2p::exec::CompiledPlan* hit = cache.find(key);
        if (hit == nullptr) hit = cache.find_near(key);
        sink += hit != nullptr ? 1 : 0;
      }
      lookup_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(keys.size()));

      t0 = Clock::now();
      for (const Planned& p : planned) {
        h2p::exec::CompiledPlan cp = h2p::exec::compile(p.plan, *p.eval);
        h2p::exec::attach_fallback_costs(cp, *p.eval);
        sink += cp.slices.size();
      }
      compile_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(planned.size()));
    }
    checks_.expect(sink > 0, "outside timings did work");
    out.key_us = median(key_us);
    out.lookup_us = median(lookup_us);
    out.compile_us = median(compile_us);
    return out;
  }

  void per_layer_metrics(const std::vector<CallProfile>& profiles,
                         const std::map<std::string, double>& counters,
                         const Timing& plain, const Timing& traced,
                         const h2p::OnlineResult& drift_src) {
    const CallProfile& p0 = profiles.front();
    const auto count = [&](const char* span) {
      return static_cast<double>(p0.span(span).count);
    };
    const auto self_ms = [&](const char* span) {
      return per_call(profiles,
                      [&](const CallProfile& p) { return p.span(span).self_us / 1e3; });
    };
    const auto total_ms = [&](const char* span) {
      return per_call(profiles,
                      [&](const CallProfile& p) { return p.span(span).total_us / 1e3; });
    };
    const auto dur_q = [&](const char* span, double q) {
      return per_call(profiles, [&](const CallProfile& p) {
        return h2p::percentile(p.span(span).durations_us, q);
      });
    };
    const OutsideTimings outside = time_outside();
    const h2p::OnlineResult& r = first_;

    std::vector<Metric>& m = metrics_;
    const double cost_calls = count("planner.cost_tables");
    m.push_back({"soc.cost_tables.calls", cost_calls, "count"});
    m.push_back({"soc.cost_tables.self_ms", self_ms("planner.cost_tables"), "ms"});
    m.push_back({"soc.cost_tables.us_per_call",
                 cost_calls > 0 ? total_ms("planner.cost_tables") * 1e3 / cost_calls : 0.0,
                 "us"});
    for (const auto& [layer, span] :
         {std::pair{"core.horizontal", "planner.horizontal"},
          std::pair{"core.mitigation", "planner.mitigation"},
          std::pair{"core.tail_sweep", "planner.tail_sweep"}}) {
      m.push_back({std::string(layer) + ".calls", count(span), "count"});
      m.push_back({std::string(layer) + ".self_ms", self_ms(span), "ms"});
    }
    m.push_back({"core.tail_sweep.total_ms", total_ms("planner.tail_sweep"), "ms"});
    for (const auto& [layer, span] :
         {std::pair{"core.plan_cold", "planner.plan_cold"},
          std::pair{"core.plan_warm", "planner.plan_warm"},
          std::pair{"core.plan_degraded", "planner.plan_degraded"}}) {
      m.push_back({std::string(layer) + ".calls", count(span), "count"});
      m.push_back({std::string(layer) + ".p50_us", dur_q(span, 0.5), "us"});
      m.push_back({std::string(layer) + ".p99_us", dur_q(span, 0.99), "us"});
    }

    const double des_tasks = counters.at("des.tasks");
    m.push_back({"sim.des.calls", count("des.simulate"), "count"});
    m.push_back({"sim.des.tasks", des_tasks, "count"});
    m.push_back({"sim.des.self_ms", self_ms("des.simulate"), "ms"});
    m.push_back({"sim.des.ns_per_task",
                 des_tasks > 0 ? total_ms("des.simulate") * 1e6 / des_tasks : 0.0, "ns"});

    const double hits = counters.at("plan_cache.hits");
    const double misses = counters.at("plan_cache.misses");
    const double warm_hits = counters.at("plan_cache.warm_hits");
    m.push_back({"exec.plan_cache.hits", hits, "count"});
    m.push_back({"exec.plan_cache.misses", misses, "count"});
    m.push_back({"exec.plan_cache.warm_hits", warm_hits, "count"});
    m.push_back({"exec.plan_cache.evictions", counters.at("plan_cache.evictions"), "count"});
    m.push_back({"exec.plan_cache.hit_ratio",
                 hits + misses > 0 ? (hits + warm_hits) / (hits + misses) : 0.0,
                 "fraction"});
    m.push_back({"exec.plan_cache.key_us", outside.key_us, "us"});
    m.push_back({"exec.plan_cache.lookup_us", outside.lookup_us, "us"});
    m.push_back({"exec.compile.us_per_call", outside.compile_us, "us"});

    m.push_back({"sim.online.self_ms", self_ms(kCallSpan), "ms"});
    m.push_back({"sim.online.window_p50_us",
                 per_call(profiles,
                          [](const CallProfile& p) { return h2p::percentile(p.window_us, 0.5); }),
                 "us"});
    m.push_back({"sim.online.window_p99_us",
                 per_call(profiles,
                          [](const CallProfile& p) { return h2p::percentile(p.window_us, 0.99); }),
                 "us"});

    const double submitted = p0.prefetch_submitted;
    // pool.jobs counts jobs a worker ran, pool.help_runs jobs a waiting caller
    // ran; which thread gets a job depends on timing, their sum does not.
    m.push_back({"util.thread_pool.jobs", counters.at("pool.jobs") + counters.at("pool.help_runs"),
                 "count"});
    m.push_back({"util.thread_pool.help_runs", counters.at("pool.help_runs"), "count"});
    m.push_back({"util.thread_pool.prefetch_pump_self_ms", self_ms("online.prefetch_pump"), "ms"});
    m.push_back({"util.thread_pool.prefetch_wait_ms", total_ms("online.prefetch_wait"), "ms"});
    m.push_back({"util.thread_pool.prefetch_useful_ratio",
                 submitted > 0 ? count("online.prefetch_wait") / submitted : 0.0, "fraction"});

    double backoff_ms = 0.0;
    std::vector<double> per_bucket(5, 0.0);
    for (const h2p::WindowStats& ws : r.windows) {
      backoff_ms += ws.backoff_wait_ms;
      per_bucket[std::min<std::size_t>(ws.thermal_bucket, 4)] += 1.0;
    }
    m.push_back({"sim.fault_injector.shed", static_cast<double>(r.shed_requests), "count"});
    m.push_back({"sim.fault_injector.deferred", static_cast<double>(r.deferred_requests), "count"});
    m.push_back({"sim.fault_injector.deadline_misses",
                 static_cast<double>(r.deadline_misses), "count"});
    m.push_back({"sim.fault_injector.degraded_replans",
                 static_cast<double>(r.degraded_hits), "count"});
    m.push_back({"sim.fault_injector.backoff_wait_ms", backoff_ms, "ms"});
    m.push_back({"soc.thermal.bucket_transitions",
                 static_cast<double>(r.bucket_transitions), "count"});
    for (std::size_t b = 0; b < per_bucket.size(); ++b) {
      m.push_back({"soc.thermal.windows_b" + std::to_string(b), per_bucket[b], "count"});
    }
    m.push_back({"obs.drift.records", static_cast<double>(drift_src.slice_records.size()),
                 "count"});
    m.push_back({"obs.drift.alerts", static_cast<double>(drift_src.drift_alerts), "count"});
    double capped = 0.0;
    for (const h2p::obs::SliceRecord& rec : drift_src.slice_records) {
      capped += std::min(1.0, std::fabs(rec.rel_err()));
    }
    if (!drift_src.slice_records.empty()) {
      capped /= static_cast<double>(drift_src.slice_records.size());
    }
    m.push_back({"obs.drift.mean_abs_rel_err", drift_src.drift_mean_abs_rel_err, "fraction"});
    m.push_back({"obs.drift.capped_abs_rel_err", capped, "fraction"});

    // Modeled SoC side, from the nominal call's timeline.
    const h2p::Timeline& tl = r.timeline;
    std::vector<double> busy(tl.num_procs, 0.0);
    double executed = 0.0;
    double solo = 0.0;
    for (const h2p::TaskRecord& t : tl.tasks) {
      busy[t.proc_idx] += t.duration_ms();
      executed += t.duration_ms();
      solo += t.solo_ms;
    }
    const double makespan = tl.makespan_ms();
    for (std::size_t p = 0; p < tl.num_procs; ++p) {
      m.push_back({std::string("soc.model.busy_frac_") + h2p::to_string(w_.soc.processor(p).kind),
                   makespan > 0 ? busy[p] / makespan : 0.0, "fraction"});
    }
    m.push_back({"soc.model.contention_inflation", solo > 0 ? executed / solo : 0.0, "ratio"});
    std::map<h2p::WindowSource, double> sources;
    for (const h2p::WindowStats& ws : r.windows) sources[ws.source] += 1.0;
    m.push_back({"soc.model.windows_cold", sources[h2p::WindowSource::kColdReplan], "count"});
    m.push_back({"soc.model.windows_warm", sources[h2p::WindowSource::kWarmReplan], "count"});
    m.push_back({"soc.model.windows_hit", sources[h2p::WindowSource::kCacheHit], "count"});
    m.push_back({"soc.model.windows_degraded", sources[h2p::WindowSource::kDegradedReplan],
                 "count"});
    m.push_back({"soc.model.planning_charged_ms", r.planning_charged_ms, "ms"});
    m.push_back({"soc.model.planning_hidden_ms", r.planning_hidden_ms, "ms"});

    const double plain_wps = plain.windows_per_s_ref();
    const double traced_wps = traced.windows_per_s_ref();
    m.push_back({"host.reference_ms", median(plain.reference_ms), "ms"});
    m.push_back({"trace.host_windows_per_s_untraced", plain_wps, "1/s"});
    m.push_back({"trace.host_windows_per_s_traced", traced_wps, "1/s"});
    m.push_back({"trace.overhead_frac", plain_wps / traced_wps - 1.0, "fraction"});
  }

  // ---- result ---------------------------------------------------------------
  int finish() {
    if (!args_.trace) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      // The reference loop's memory stays resident from set-up to exit and
      // is not the library's.
      const double reference_kib = static_cast<double>(reference_->bytes()) / 1024.0;
      metrics_.push_back(
          {"peak_rss_mb", (static_cast<double>(ru.ru_maxrss) - reference_kib) / 1024.0, "MiB"});
    }
    h2p::Json params = h2p::Json::object();
    params["workload"] = h2p::Json::string(w_.name);
    params["seed"] = h2p::Json::number(static_cast<double>(args_.seed));
    params["soc"] = h2p::Json::string(w_.soc.name());
    params["requests"] = h2p::Json::number(static_cast<double>(w_.requests));
    params["nominal_rps"] = h2p::Json::number(w_.nominal_rps);
    params["replan_window"] = h2p::Json::number(static_cast<double>(w_.window));
    params["async_planning"] = h2p::Json::boolean(w_.async_planning);
    params["pool_threads"] =
        h2p::Json::number(pool_ ? static_cast<double>(pool_->num_threads()) : 0.0);
    params["warm_start"] = h2p::Json::boolean(options_.warm_start);
    params["sorted_windows"] = h2p::Json::boolean(w_.sorted_windows);
    params["weather"] = h2p::Json::boolean(w_.weather);
    params["latency_limit_ms"] = h2p::Json::number(w_.latency_limit_ms);
    params["deadline_ms"] = h2p::Json::number(w_.deadline_ms);
    h2p::Json ladder = h2p::Json::array();
    for (const double r : w_.ladder_rps) ladder.push_back(h2p::Json::number(r));
    params["ladder_rps"] = std::move(ladder);
    params["weather_events"] =
        h2p::Json::number(static_cast<double>(faults_.weather().size()));
    params["host_cpus"] =
        h2p::Json::number(static_cast<double>(std::thread::hardware_concurrency()));
    params["digest"] = h2p::Json::string(std::to_string(digest_));
    h2p::Json wrapper = h2p::Json::object();
    wrapper["params"] = std::move(params);
    std::printf("%s\n", wrapper.dump().c_str());

    for (const std::string& f : checks_.failures()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    h2p::Json metrics = h2p::Json::object();
    for (const Metric& metric : metrics_) {
      h2p::Json v = h2p::Json::object();
      v["value"] = h2p::Json::number(metric.value);
      v["unit"] = h2p::Json::string(metric.unit);
      metrics[metric.name] = std::move(v);
    }
    h2p::Json out = h2p::Json::object();
    out["correct"] = h2p::Json::boolean(checks_.ok());
    out["attempted"] = h2p::Json::number(static_cast<double>(attempted_));
    out["failed"] = h2p::Json::number(0.0);
    out["metrics"] = std::move(metrics);
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return checks_.ok() ? 0 : 1;
  }

  Args args_;
  Clock::time_point start_;
  Workload w_;
  std::vector<h2p::OnlineRequest> stream_;
  h2p::FaultScript faults_;
  std::unique_ptr<h2p::ThreadPool> pool_;
  std::unique_ptr<Reference> reference_;
  h2p::OnlineOptions options_;
  h2p::OnlineResult first_;
  std::uint64_t digest_ = 0;
  double setup_s_ = 0.0;
  std::size_t attempted_ = 0;
  Checks checks_;
  std::vector<Metric> metrics_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    perfbench::Bench bench(args, process_start);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
