// FaultScript's time index against a linear scan over every event.  The
// SoA-vs-reference DES suites cannot catch an index bug (both simulators
// query the same FaultScript), so the scan lives here as the oracle and
// every indexed query is compared with it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "soc/soc.h"
#include "util/json.h"
#include "util/rng.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kEps = FaultScript::kEdgeEps;

// ---- the linear-scan reference ---------------------------------------------

bool covers(const FaultEvent& e, double t) {
  return t >= e.begin_ms - kEps && t < e.end_ms - kEps;
}

bool scan_available(const FaultScript& s, std::size_t proc, double t) {
  for (const FaultEvent& e : s.events()) {
    if (e.kind == FaultKind::kDropout && e.proc_idx == proc && covers(e, t)) {
      return false;
    }
  }
  return true;
}

bool scan_permanently_down(const FaultScript& s, std::size_t proc, double t) {
  for (const FaultEvent& e : s.events()) {
    if (e.kind == FaultKind::kDropout && e.proc_idx == proc &&
        std::isinf(e.end_ms) && covers(e, t)) {
      return true;
    }
  }
  return false;
}

double scan_slowdown(const FaultScript& s, std::size_t proc, double t) {
  double factor = 1.0;
  for (const FaultEvent& e : s.events()) {
    if (e.kind == FaultKind::kSlowdown && e.proc_idx == proc && covers(e, t)) {
      factor *= e.factor;
    }
  }
  return std::max(factor, 0.05);
}

double scan_bus_factor(const FaultScript& s, double t) {
  if (!s.has_bus_degrade()) return 1.0;
  double factor = 1.0;
  for (const FaultEvent& e : s.events()) {
    if (e.kind == FaultKind::kBusDegrade && covers(e, t)) factor *= e.factor;
  }
  return std::max(factor, 0.05);
}

std::uint64_t scan_availability_mask(const FaultScript& s, double t,
                                     std::size_t num_procs) {
  std::uint64_t mask = num_procs == 64 ? ~0ull : (1ull << num_procs) - 1;
  for (const FaultEvent& e : s.events()) {
    if (e.kind == FaultKind::kDropout && e.proc_idx < num_procs &&
        covers(e, t)) {
      mask &= ~(1ull << e.proc_idx);
    }
  }
  return mask;
}

double scan_next_change_after(const FaultScript& s, double t) {
  double next = kInf;
  for (const FaultEvent& e : s.events()) {
    if (e.begin_ms > t + kEps) next = std::min(next, e.begin_ms);
    if (std::isfinite(e.end_ms) && e.end_ms > t + kEps) {
      next = std::min(next, e.end_ms);
    }
  }
  return next;
}

std::vector<double> scan_edges(const FaultScript& s) {
  std::vector<double> out;
  for (const FaultEvent& e : s.events()) {
    out.push_back(e.begin_ms);
    if (std::isfinite(e.end_ms)) out.push_back(e.end_ms);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---- random scripts ----------------------------------------------------------

/// Times snap to a coarse grid half the time so windows share edges, stack
/// and abut; the rest are arbitrary doubles.
double random_time(Rng& rng) {
  return rng.chance(0.5) ? 5.0 * rng.uniform_int(0, 40) : rng.uniform(0.0, 200.0);
}

/// Overlapping slowdowns, transient and permanent drop-outs and stacked bus
/// degrades on `procs` processors, plus one on a processor no mask can hold.
std::vector<FaultEvent> random_events(Rng& rng, std::size_t procs,
                                      std::size_t count) {
  std::vector<FaultEvent> events;
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    const int kind = rng.uniform_int(0, 2);
    e.kind = static_cast<FaultKind>(kind);
    e.proc_idx = rng.index(procs);
    e.begin_ms = random_time(rng);
    e.end_ms = e.begin_ms + (rng.chance(0.5) ? 5.0 * rng.uniform_int(1, 8)
                                             : rng.uniform(1e-6, 60.0));
    if (e.kind == FaultKind::kDropout && rng.chance(0.15)) e.end_ms = kInf;
    // Low factors so stacked windows reach the 0.05 clamp.
    if (e.kind != FaultKind::kDropout) e.factor = rng.uniform(0.1, 1.0);
    events.push_back(e);
  }
  events.push_back(FaultEvent{FaultKind::kDropout, 70, 30.0, 45.0, 1.0});
  events.push_back(FaultEvent{FaultKind::kSlowdown, 70, 35.0, 90.0, 0.5});
  return events;
}

std::vector<WeatherEvent> random_weather(Rng& rng, std::size_t count) {
  std::vector<WeatherEvent> weather;
  for (std::size_t i = 0; i < count; ++i) {
    WeatherEvent w;
    w.kind = static_cast<WeatherKind>(rng.uniform_int(0, 2));
    w.begin_ms = random_time(rng);
    w.duration_ms = rng.uniform(1.0, 80.0);
    w.severity = rng.uniform(0.1, 1.0);
    weather.push_back(w);
  }
  return weather;
}

/// Every edge, the index bounds on either side of it, a hair past both,
/// midpoints between edges, and the non-finite times.
std::vector<double> probe_times(const FaultScript& s) {
  const std::vector<double> edges = scan_edges(s);
  std::vector<double> times = {0.0, -0.0, -1.0, kNaN, kInf, -kInf, 1e300};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double e = edges[i];
    for (const double d : {0.0, kEps, -kEps, 1e-12, -1e-12}) times.push_back(e + d);
    times.push_back(e - kEps + 1e-12);
    times.push_back(e - kEps - 1e-12);
    times.push_back(std::nextafter(e - kEps, -kInf));
    if (i + 1 < edges.size()) times.push_back(0.5 * (e + edges[i + 1]));
  }
  return times;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares every query of `s` with the scan at every probe time; counts
/// the comparisons in `checked` so callers can assert the sweep did work.
void expect_matches_scan(const FaultScript& s, std::size_t procs,
                         const std::string& label, std::size_t& checked) {
  EXPECT_EQ(s.edges(), scan_edges(s)) << label;
  for (const double t : probe_times(s)) {
    SCOPED_TRACE(label + " t=" + std::to_string(t));
    for (std::size_t p = 0; p <= procs + 1; ++p) {
      ASSERT_EQ(s.available(p, t), scan_available(s, p, t)) << "proc " << p;
      ASSERT_EQ(s.permanently_down(p, t), scan_permanently_down(s, p, t))
          << "proc " << p;
      ASSERT_TRUE(same_bits(s.slowdown(p, t), scan_slowdown(s, p, t)))
          << "proc " << p << ": " << s.slowdown(p, t) << " vs "
          << scan_slowdown(s, p, t);
      checked += 3;
    }
    for (const std::size_t p : {std::size_t{70}, std::size_t{71}}) {
      ASSERT_EQ(s.available(p, t), scan_available(s, p, t));
      ASSERT_EQ(s.permanently_down(p, t), scan_permanently_down(s, p, t));
      ASSERT_TRUE(same_bits(s.slowdown(p, t), scan_slowdown(s, p, t)));
    }
    ASSERT_TRUE(same_bits(s.bus_factor(t), scan_bus_factor(s, t)));
    for (const std::size_t n : {std::size_t{1}, procs, std::size_t{64}}) {
      ASSERT_EQ(s.availability_mask(t, n), scan_availability_mask(s, t, n));
    }
    ASSERT_TRUE(same_bits(s.next_change_after(t), scan_next_change_after(s, t)));
    checked += 5;
  }
}

TEST(FaultScript, IndexMatchesLinearScan) {
  const Soc soc = Soc::snapdragon870();
  const std::size_t P = soc.num_processors();
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::string tag = "seed " + std::to_string(seed);
    const FaultScript base(random_events(rng, P, 4 + seed % 24));
    expect_matches_scan(base, P, tag + " base", checked);
    // Weather expanded on top of the base events, listed in random order so
    // windows overlap and weather indices are not time-sorted.
    const FaultScript weathered = FaultScript::with_weather(
        soc, random_weather(rng, 1 + seed % 8), random_events(rng, P, seed % 6));
    expect_matches_scan(weathered, P, tag + " weather", checked);
    // The JSON round trip rebuilds the index from the parsed events.
    const FaultScript replayed =
        fault_script_from_json(Json::parse(fault_script_to_json(weathered).dump()));
    ASSERT_EQ(replayed.events(), weathered.events()) << tag;
    expect_matches_scan(replayed, P, tag + " json", checked);
    FaultSamplerOptions opts;
    opts.horizon_ms = 400.0;
    opts.mean_weather_gap_ms = 60.0;
    opts.permanent_prob = 0.3;
    expect_matches_scan(FaultScript::sample(soc, seed, opts), P,
                        tag + " sampled", checked);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 100000u);
}

TEST(FaultScript, IndexAnswersNonFiniteTimesLikeTheScan) {
  // A permanent drop-out covers every finite time after its begin but not
  // +inf (t < end - eps fails), and nothing covers NaN.
  const FaultScript s({
      FaultEvent{FaultKind::kDropout, 0, 10.0, kInf, 1.0},
      FaultEvent{FaultKind::kSlowdown, 1, 0.0, kInf, 0.5},
      FaultEvent{FaultKind::kBusDegrade, 0, 5.0, kInf, 0.5},
  });
  EXPECT_FALSE(s.available(0, 1e300));
  EXPECT_TRUE(s.permanently_down(0, 1e300));
  for (const double t : {kInf, kNaN}) {
    EXPECT_TRUE(s.available(0, t));
    EXPECT_FALSE(s.permanently_down(0, t));
    EXPECT_EQ(s.slowdown(1, t), 1.0);
    EXPECT_EQ(s.bus_factor(t), 1.0);
    EXPECT_EQ(s.availability_mask(t, 2), 0b11ull);
    EXPECT_TRUE(std::isinf(s.next_change_after(t)));
  }
  EXPECT_EQ(s.availability_mask(-kInf, 2), 0b11ull);
  EXPECT_EQ(s.next_change_after(-kInf), 0.0);

  // A default-constructed script answers like an empty one.
  const FaultScript none;
  EXPECT_TRUE(none.available(3, 1.0));
  EXPECT_EQ(none.availability_mask(1.0, 64), ~0ull);
  EXPECT_TRUE(none.edges().empty());
  EXPECT_TRUE(std::isinf(none.next_change_after(0.0)));
}

}  // namespace
}  // namespace h2p
