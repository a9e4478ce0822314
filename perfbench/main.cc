// Replay benchmark of the urpsm library: drives three closed-loop replay
// workloads through the public Simulation::Run and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced replay
// (--trace 1). The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// See README.md in this directory for the workloads and every metric.
//
// Usage:
//   perfbench_replay --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR]
//   perfbench_replay --selftest

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/instruments.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"

namespace perfbench {
namespace {

using urpsm::Request;
using urpsm::SimReport;
using urpsm::Worker;

/// One replay workload. Every run replays the whole request table; the
/// sizes were chosen so one replay takes a few seconds on a 4-vCPU VM.
struct Workload {
  const char* name;
  double city_scale;        // MakeNycLike scale (0.12: 1,156 vertices)
  int requests;
  int workers;
  double deadline_min;      // deadline = release + this
  double uniform_fraction;  // share of trip endpoints drawn uniformly
  double release_divisor;   // release times divided by this, gaps kept
  double batch_window_s;    // 0: per-request loop; > 0: windowed loop
  int num_threads;
  int setup_reps;           // setup_s is the median of this many builds
};

constexpr Workload kWorkloads[] = {
    // The paper's setting: a hotspot day served request by request.
    {"day_sequential", 0.12, 20000, 600, 10.0, 0.25, 1.0, 0.0, 1, 5},
    // Long uniform trips on a larger city: cold cache, label-bound.
    {"long_trips", 0.25, 6000, 240, 30.0, 0.9, 1.0, 0.0, 1, 3},
    // The day compressed 4x, planned in 6-s windows on the thread pool.
    // Not in BENCHMARK.json: its timings are not steady enough to gate on
    // (see README.md); run it by name to measure the batch path.
    {"rush_windowed", 0.12, 24000, 400, 10.0, 0.25, 4.0, 6.0, 2, 5},
};

constexpr double kDayMinutes = 1440.0;
constexpr double kCapacityMean = 4.0;
constexpr double kPenaltyFactor = 20.0;  // Table 5, NYC
constexpr std::uint64_t kCitySeed = 1;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double Percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------- setup

struct Setup {
  std::unique_ptr<urpsm::RoadNetwork> graph;
  std::unique_ptr<urpsm::HubLabelOracle> labels;
  std::vector<double> setup_s;   // network + labels, per repetition
  std::vector<double> labels_s;  // labels alone, per repetition
};

/// Builds the road network and its hub labels `reps` times (the previous
/// build is freed first, so the peak holds one copy) and keeps the last.
Setup BuildSetup(const Workload& w, int reps, SpanLog* spans) {
  Setup s;
  for (int rep = 0; rep < reps; ++rep) {
    s.labels.reset();
    s.graph.reset();
    const int root = spans != nullptr ? spans->Open("setup", -1) : -1;
    const auto t0 = Clock::now();
    const int net = spans != nullptr ? spans->Open("setup.network", root) : -1;
    s.graph = std::make_unique<urpsm::RoadNetwork>(
        urpsm::MakeNycLike(w.city_scale, kCitySeed));
    if (net >= 0) spans->Close(net);
    const auto t1 = Clock::now();
    const int lab = spans != nullptr ? spans->Open("setup.labels", root) : -1;
    s.labels = std::make_unique<urpsm::HubLabelOracle>(
        urpsm::HubLabelOracle::Build(*s.graph));
    if (lab >= 0) spans->Close(lab);
    const auto t2 = Clock::now();
    if (root >= 0) spans->Close(root);
    s.setup_s.push_back(MsBetween(t0, t2) / 1e3);
    s.labels_s.push_back(MsBetween(t1, t2) / 1e3);
  }
  return s;
}

// --------------------------------------------------------------- inputs

struct Inputs {
  std::vector<Request> requests;
  std::vector<Worker> workers;
  std::uint64_t fingerprint = 0;
};

class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// splitmix64: the benchmark's own generator, so that no change to the
/// library's random utilities can move the inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform01() { return (Next() >> 11) * 0x1.0p-53; }
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<unsigned>(n));
  }
  double Gaussian(double mean, double sd) {  // Box-Muller
    const double u1 = 1.0 - Uniform01();
    const double u2 = Uniform01();
    return mean + sd * std::sqrt(-2.0 * std::log(u1)) *
                      std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

/// Demand hotspots at fixed places of the city's bounding box (shares of
/// its width and height). They are part of the workload, not of the seed:
/// were they drawn from the seed, a run's cost and served rate would
/// depend more on where the hotspots fell than on the code under test.
constexpr double kHotspots[][2] = {{0.25, 0.30}, {0.70, 0.25}, {0.50, 0.55},
                                   {0.20, 0.75}, {0.75, 0.70}, {0.45, 0.90}};
constexpr double kHotspotSdKm = 1.5;
constexpr double kRushFraction = 0.6;  // trips in the 8:30 and 18:00 peaks
constexpr double kRushSdMin = 45.0;
// NYC passenger counts (1..6 riders), as in the library's generator.
constexpr double kRiderWeights[] = {0.72, 0.14, 0.05, 0.05, 0.02, 0.02};

urpsm::VertexId Nearest(const urpsm::RoadNetwork& g, double x, double y) {
  urpsm::VertexId best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (urpsm::VertexId v = 0; v < g.num_vertices(); ++v) {
    const double dx = g.coord(v).x - x;
    const double dy = g.coord(v).y - y;
    if (dx * dx + dy * dy < best_d2) {
      best_d2 = dx * dx + dy * dy;
      best = v;
    }
  }
  return best;
}

/// Inverse of the standard normal CDF, by bisection on std::erfc.
double Probit(double p) {
  double lo = -10.0;
  double hi = 10.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// `n` draws of a distribution given by its inverse CDF, one from each of
/// n equal-probability strata.
template <typename InverseCdf>
std::vector<double> Stratified(int n, SplitMix64* rng, InverseCdf inverse) {
  std::vector<double> v;
  for (int k = 0; k < n; ++k) v.push_back(inverse((k + rng->Uniform01()) / n));
  return v;
}

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    const int j = rng->Below(static_cast<int>(i));
    std::swap((*v)[i - 1], (*v)[static_cast<std::size_t>(j)]);
  }
}

/// Requests and workers from `seed` alone. The mix is fixed by the
/// workload: how many trips start in each peak, how many endpoints are
/// uniform and how many fall at each hotspot, how many trips carry each
/// rider count, and the workers' capacities. The seed draws where each
/// trip starts and ends, its release time within its stratum, the order of
/// the mix and where each worker starts, so no seed yields more rush-hour
/// trips, uniform endpoints or large groups than another.
/// Penalties use the exact Dijkstra oracle, not the labels under test, so
/// no change to the label build can move the inputs.
Inputs MakeInputs(const Workload& w, const urpsm::RoadNetwork& graph,
                  std::uint64_t seed, double size_factor) {
  Inputs in;
  SplitMix64 rng(seed);
  urpsm::Point lo;
  urpsm::Point hi;
  graph.BoundingBox(&lo, &hi);
  const int n = std::max(1, static_cast<int>(w.requests * size_factor));

  // Release times: the two peaks and the flat rest of the day.
  const int rush = static_cast<int>(std::lround(n * kRushFraction));
  const int morning = static_cast<int>(std::lround(rush * 0.45));
  std::vector<double> release;
  for (const auto& [count, peak] : {std::pair{morning, 8.5 * 60.0},
                                    std::pair{rush - morning, 18.0 * 60.0}}) {
    const auto at = [peak = peak](double p) {
      return std::clamp(peak + kRushSdMin * Probit(p), 0.0, kDayMinutes);
    };
    for (const double t : Stratified(count, &rng, at)) release.push_back(t);
  }
  for (const double t :
       Stratified(n - rush, &rng, [](double p) { return p * kDayMinutes; })) {
    release.push_back(t);
  }
  std::sort(release.begin(), release.end());

  // Endpoint kinds: -1 uniform, else the hotspot's index.
  const int hotspots = static_cast<int>(std::size(kHotspots));
  const int uniform =
      static_cast<int>(std::lround(2.0 * n * w.uniform_fraction));
  std::vector<int> kinds;
  for (int e = 0; e < 2 * n; ++e) {
    kinds.push_back(e < uniform ? -1 : e % hotspots);
  }
  Shuffle(&kinds, &rng);
  const auto endpoint = [&](int kind) -> urpsm::VertexId {
    if (kind < 0) return rng.Below(graph.num_vertices());
    const double* h = kHotspots[kind];
    return Nearest(graph,
                   rng.Gaussian(lo.x + h[0] * (hi.x - lo.x), kHotspotSdKm),
                   rng.Gaussian(lo.y + h[1] * (hi.y - lo.y), kHotspotSdKm));
  };

  // Riders: each count's share of the trips, rounded down; the rest
  // carry one rider.
  std::vector<int> riders;
  for (std::size_t k = 0; k < std::size(kRiderWeights); ++k) {
    riders.insert(riders.end(),
                  static_cast<std::size_t>(n * kRiderWeights[k]),
                  static_cast<int>(k) + 1);
  }
  while (static_cast<int>(riders.size()) < n) riders.push_back(1);
  Shuffle(&riders, &rng);

  for (int i = 0; i < n; ++i) {
    Request r;
    r.origin = endpoint(kinds[2 * i]);
    do {
      r.destination = endpoint(kinds[2 * i + 1]);
    } while (r.destination == r.origin);
    r.release_time = release[i] / w.release_divisor;
    r.deadline = r.release_time + w.deadline_min;
    r.capacity = riders[i];
    in.requests.push_back(r);
  }
  urpsm::DijkstraOracle exact(&graph);
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    Request& r = in.requests[i];
    r.id = static_cast<urpsm::RequestId>(i);
    r.penalty = kPenaltyFactor * exact.Distance(r.origin, r.destination);
  }
  const int workers = std::max(1, static_cast<int>(w.workers * size_factor));
  std::vector<double> capacity = Stratified(workers, &rng, [](double p) {
    return std::max(1.0, std::round(kCapacityMean + Probit(p)));
  });
  Shuffle(&capacity, &rng);
  for (int i = 0; i < workers; ++i) {
    Worker wk;
    wk.id = i;
    wk.initial_location = rng.Below(graph.num_vertices());
    wk.capacity = static_cast<int>(capacity[static_cast<std::size_t>(i)]);
    in.workers.push_back(wk);
  }
  Fnv1a h;
  for (const Request& r : in.requests) {
    h.Add(r.id);
    h.Add(r.origin);
    h.Add(r.destination);
    h.Add(r.release_time);
    h.Add(r.deadline);
    h.Add(r.penalty);
    h.Add(r.capacity);
  }
  for (const Worker& wk : in.workers) {
    h.Add(wk.id);
    h.Add(wk.initial_location);
    h.Add(wk.capacity);
  }
  in.fingerprint = h.value();
  return in;
}

// -------------------------------------------------------------- replays

enum class Variant {
  kPlain,      // the library as a user calls it: no decorator at all
  kStopwatch,  // planner stopwatch only (end-to-end runs)
  kTraced,     // stopwatch spans + label decorator + registry counters
};

struct Replay {
  SimReport report;
  double wall_s = 0.0;  // the benchmark's stopwatch around Run
  PlannerProbe probe;
  std::vector<std::string> failures;
  int run_span = -1;
};

/// The outcome every replay of one input must reproduce bit for bit.
bool SameOutcome(const SimReport& a, const SimReport& b) {
  return std::memcmp(&a.unified_cost, &b.unified_cost, sizeof(double)) == 0 &&
         a.served_requests == b.served_requests &&
         a.distance_queries == b.distance_queries;
}

std::unique_ptr<Replay> RunReplay(const Workload& w, const Setup& setup,
                                  const Inputs& in, Variant variant,
                                  SpanLog* spans) {
  auto out = std::make_unique<Replay>();
  urpsm::SimOptions options;
  options.num_threads = w.num_threads;
  options.batch_window_s = w.batch_window_s;
  urpsm::DistanceOracle* oracle = setup.labels.get();
  std::optional<TracedOracle> traced;
  if (variant == Variant::kTraced) {
    traced.emplace(setup.labels.get());
    oracle = &*traced;
    options.collect_metrics = true;
    spans->Attach(&*traced);
    out->probe.spans = spans;
  }
  urpsm::PlannerFactory factory =
      w.batch_window_s > 0.0
          ? urpsm::MakeDispatchWindowFactory(urpsm::PlannerConfig{})
          : urpsm::MakePruneGreedyDpFactory(urpsm::PlannerConfig{});
  if (variant != Variant::kPlain) {
    out->probe.decision_ms.reserve(in.requests.size());
    factory = Stopwatched(std::move(factory), &out->probe);
  }
  urpsm::Simulation sim(setup.graph.get(), oracle, in.workers, &in.requests,
                        options);
  if (spans != nullptr && variant == Variant::kTraced) {
    out->run_span = spans->Open("sim.run", -1);
    out->probe.parent = out->run_span;
  }
  const auto t0 = Clock::now();
  out->report = sim.Run(factory);
  const auto t1 = Clock::now();
  if (out->run_span >= 0) {
    spans->Close(out->run_span);
    spans->Attach(nullptr);
  }
  out->wall_s = MsBetween(t0, t1) / 1e3;

  const urpsm::InvariantReport acc = urpsm::CheckAccounting(out->report);
  if (!acc.ok) out->failures.push_back("accounting: " + acc.violation);
  const urpsm::InvariantReport inv =
      urpsm::VerifyInvariants(sim.fleet(), in.requests);
  if (!inv.ok) out->failures.push_back("invariants: " + inv.violation);
  if (out->report.timed_out) out->failures.push_back("run timed out");
  return out;
}

/// Requests of a replay counted as failed: DNF and shed ones, or all of
/// them when the replay failed an output check.
std::int64_t FailedRequests(const Replay& r) {
  if (!r.failures.empty()) return r.report.total_requests;
  return r.report.dnf_requests + r.report.shed_requests;
}

double Throughput(const Replay& r) {
  return r.report.processed_requests / r.wall_s;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  // printed beside the value, not in the JSON
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Count(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

/// End-to-end metrics over the stopwatch-only replays of one run. Each
/// timing metric is the median over the replays of that replay's value, so
/// the other replays outvote one that a burst of contention hit.
std::vector<Metric> EndToEndMetrics(const Workload& w, const Setup& setup,
                                    const std::vector<const Replay*>& runs) {
  std::vector<double> tput;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::size_t decisions = 0;
  std::size_t beyond = 0;
  // What lies beyond p99: requests on the per-request loop, windows on
  // the windowed one (every member of a window shares its sample).
  const bool windowed = w.batch_window_s > 0.0;
  for (const Replay* r : runs) {
    tput.push_back(Throughput(*r));
    std::vector<double> sorted = r->probe.decision_ms;
    std::sort(sorted.begin(), sorted.end());
    p50s.push_back(Percentile(sorted, 50));
    p99s.push_back(Percentile(sorted, 99));
    decisions += sorted.size();
    const auto& tail = windowed ? r->probe.window_ms : sorted;
    beyond += static_cast<std::size_t>(
        std::count_if(tail.begin(), tail.end(),
                      [&](double v) { return v > p99s.back(); }));
  }
  const SimReport& rep = runs.front()->report;
  const std::string sample_note =
      Count(runs.size(), "replays") + ", " + Count(decisions, "decisions");
  return {
      {"throughput_rps", Median(tput), "req/s", Count(tput.size(), "replays")},
      {"decision_p50_ms", Median(p50s), "ms", sample_note},
      {"decision_p99_ms", Median(p99s), "ms",
       sample_note + ", " + std::to_string(beyond) +
           (windowed ? " windows" : " requests") + " beyond"},
      {"unified_cost", rep.unified_cost, "min", "identical in every replay"},
      {"served_rate", rep.served_rate, "fraction",
       std::to_string(rep.served_requests) + " of " +
           std::to_string(rep.total_requests)},
      {"setup_s", Median(setup.setup_s), "s",
       Count(setup.setup_s.size(), "builds")},
      {"peak_rss_mb", PeakRssMib(), "MiB", "VmHWM of this process"},
  };
}

/// Registry read that tolerates a counter a later version removed.
double RegistryValue(const SimReport& r, const std::string& key,
                     std::vector<std::string>* absent) {
  const auto it = r.metrics.find(key);
  if (it == r.metrics.end()) {
    absent->push_back(key);
    return 0.0;
  }
  return it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced replay.
std::vector<Metric> LayerMetrics(const Setup& setup, const Replay& traced,
                                 const SpanLog& spans,
                                 double untraced_wall_s,
                                 double traced_wall_s) {
  const std::vector<Span>& all = spans.spans();
  const Span& run = all[static_cast<std::size_t>(traced.run_span)];
  double core_busy = 0.0;
  LabelWork in_core;
  for (const Span& s : all) {
    if (s.parent != traced.run_span) continue;
    core_busy += (s.end_ns - s.start_ns) / 1e9;
    in_core += s.label;
  }
  const double run_span_s = (run.end_ns - run.start_ns) / 1e9;
  const double shortest_busy = run.label.ns / 1e9;
  const double core_self = core_busy - in_core.ns / 1e9;
  const double sim_self =
      run_span_s - core_busy - (run.label.ns - in_core.ns) / 1e9;
  const double wall = traced.wall_s;
  const double unattributed = wall - (sim_self + core_self + shortest_busy);

  const SimReport& rep = traced.report;
  std::vector<std::string> absent;
  const double hits = RegistryValue(rep, "oracle.cache_hits", &absent);
  const double misses = RegistryValue(rep, "oracle.cache_misses", &absent);
  const double memo_hit = RegistryValue(rep, "memo.hit", &absent);
  const double memo_miss = RegistryValue(rep, "memo.miss", &absent);
  const double replans =
      RegistryValue(rep, "engine.commit.replans", &absent);
  const double replan_ms =
      RegistryValue(rep, "engine.commit.replan_ms.sum", &absent);
  const double ticket_ms =
      RegistryValue(rep, "engine.commit.ticket_wait_ms.sum", &absent);
  const double shard_ms =
      RegistryValue(rep, "shards.commit_wait_ms.sum", &absent);
  const double evals = static_cast<double>(
      std::max<std::int64_t>(0, traced.probe.exact_evaluations));
  if (traced.probe.exact_evaluations < 0) {
    absent.push_back("exact_evaluations()");
  }
  // A histogram without observations is absent from the snapshot too.
  std::printf("absent from the registry, reported as 0:");
  for (const std::string& a : absent) std::printf(" %s", a.c_str());
  std::printf("%s\n", absent.empty() ? " none" : "");

  const double decided = rep.processed_requests;
  const std::string one = "1 traced replay";
  return {
      {"setup.labels_s", Median(setup.labels_s), "s",
       Count(setup.labels_s.size(), "builds")},
      {"setup.label_mib", setup.labels->MemoryBytes() / 1048576.0, "MiB", ""},
      {"shortest.billed_queries", static_cast<double>(rep.distance_queries),
       "count", one},
      {"shortest.cache_hit_rate", Ratio(hits, hits + misses), "fraction",
       one},
      {"shortest.label_calls", static_cast<double>(run.label.calls), "count",
       one},
      {"shortest.label_cells", static_cast<double>(run.label.cells), "count",
       one},
      {"shortest.busy_s", shortest_busy, "s", "summed over threads"},
      {"shortest.share", Ratio(shortest_busy, wall), "fraction", one},
      {"shortest.ns_per_cell",
       Ratio(static_cast<double>(run.label.ns),
             static_cast<double>(run.label.cells)),
       "ns", one},
      {"core.calls", static_cast<double>(traced.probe.decision_calls),
       "count", one},
      {"core.busy_s", core_busy, "s", one},
      {"core.self_s", core_self, "s", one},
      {"core.exact_evals", evals, "count", one},
      {"core.evals_per_decision", Ratio(evals, decided), "count", one},
      {"core.reject_share", Ratio(rep.rejected_requests, decided),
       "fraction", one},
      {"core.memo_lookups", memo_hit + memo_miss, "count", one},
      {"core.memo_hit_rate", Ratio(memo_hit, memo_hit + memo_miss),
       "fraction", one},
      {"sim.loop_self_s", sim_self, "s", one},
      {"sim.windows", static_cast<double>(traced.probe.window_ms.size()),
       "count", one},
      {"sim.commit_replans", replans, "count", one},
      {"sim.replan_ms", replan_ms, "ms", one},
      {"sim.ticket_wait_ms", ticket_ms, "ms", one},
      {"parallel.shard_wait_ms", shard_ms, "ms", one},
      {"traced_wall_s", wall, "s", one},
      {"unattributed_s", unattributed, "s", one},
      {"trace_overhead", traced_wall_s / untraced_wall_s - 1.0, "fraction",
       "median traced vs untraced replay wall"},
  };
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
      have_seed = true;
      if (*value == '-' || errno != 0 || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, &end);
      if (errno != 0 || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else {
      return false;
    }
  }
  return a->selftest ||
         (!a->workload.empty() && have_seed && a->seconds > 0.0 &&
          a->trace >= 0);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Decorator transparency at a tenth of each workload's size: the plain,
/// stopwatch-only and traced replays must agree bit for bit on unified
/// cost, served count and billed distance queries, and pass every check.
int SelfTest() {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    const Setup setup = BuildSetup(w, 1, nullptr);
    const Inputs in = MakeInputs(w, *setup.graph, 1, 0.1);
    SpanLog spans;
    const Variant variants[] = {Variant::kPlain, Variant::kStopwatch,
                                Variant::kTraced};
    const char* names[] = {"plain", "stopwatch", "traced"};
    std::vector<std::unique_ptr<Replay>> runs;
    for (const Variant v : variants) {
      runs.push_back(RunReplay(w, setup, in, v, &spans));
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Replay& r = *runs[i];
      const bool same = SameOutcome(r.report, runs[0]->report);
      ok = ok && same && r.failures.empty();
      std::printf("%-15s %-9s cost=%.17g served=%d queries=%" PRId64
                  " %s%s\n",
                  w.name, names[i], r.report.unified_cost,
                  r.report.served_requests, r.report.distance_queries,
                  same ? "identical" : "DIFFERS",
                  r.failures.empty() ? "" : (" " + r.failures[0]).c_str());
    }
  }
  std::printf("selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1"
                 " [--trace-dir DIR] | --selftest\n",
                 argv[0]);
    return 2;
  }
  if (args.selftest) return SelfTest();
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  SpanLog spans;
  const Setup setup = BuildSetup(*w, w->setup_reps, traced ? &spans : nullptr);
  const Inputs in = MakeInputs(*w, *setup.graph, args.seed, 1.0);
  std::printf("workload %s seed %" PRIu64 ": %zu requests, %zu workers, "
              "%d vertices, inputs fingerprint %016" PRIx64 "\n",
              w->name, args.seed, in.requests.size(), in.workers.size(),
              setup.graph->num_vertices(), in.fingerprint);

  // Replays until --seconds have passed, there are at least three (so the
  // medians can outvote one disturbed replay) and p99 has at least 100
  // requests (windowed: 10 windows) beyond it: stopwatch-only ones,
  // alternated with traced ones in a traced run.
  std::vector<std::unique_ptr<Replay>> replays;
  std::vector<const Replay*> untraced;
  std::vector<const Replay*> traced_runs;
  const bool windowed = w->batch_window_s > 0.0;
  const auto tail_is_measured = [&] {
    std::size_t n = 0;
    for (const Replay* r : untraced) {
      n += windowed ? r->probe.window_ms.size() : r->probe.decision_ms.size();
    }
    return n >= (windowed ? 1000u : 10000u);
  };
  const auto start = Clock::now();
  do {
    replays.push_back(
        RunReplay(*w, setup, in, Variant::kStopwatch, nullptr));
    untraced.push_back(replays.back().get());
    if (traced) {
      replays.push_back(RunReplay(*w, setup, in, Variant::kTraced, &spans));
      traced_runs.push_back(replays.back().get());
    }
  } while (MsBetween(start, Clock::now()) / 1e3 < args.seconds ||
           untraced.size() < 3 || !tail_is_measured());

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const auto& r : replays) {
    if (!SameOutcome(r->report, replays.front()->report)) {
      r->failures.push_back("outcome differs from the run's first replay");
    }
    for (const std::string& f : r->failures) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    correct = correct && r->failures.empty();
    attempted += r->report.total_requests;
    failed += FailedRequests(*r);
  }
  std::printf("%zu replays, outcome: unified cost %.17g, served %d, "
              "billed queries %" PRId64 "\nreplay walls (s):",
              replays.size(), replays.front()->report.unified_cost,
              replays.front()->report.served_requests,
              replays.front()->report.distance_queries);
  for (const auto& r : replays) std::printf(" %.3f", r->wall_s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = EndToEndMetrics(*w, setup, untraced);
  } else {
    std::vector<double> walls;
    for (const Replay* r : untraced) walls.push_back(r->wall_s);
    std::vector<const Replay*> by_wall = traced_runs;
    std::sort(by_wall.begin(), by_wall.end(),
              [](const Replay* a, const Replay* b) {
                return a->wall_s < b->wall_s;
              });
    std::vector<double> traced_walls;
    for (const Replay* r : by_wall) traced_walls.push_back(r->wall_s);
    const Replay& median_traced = *by_wall[(by_wall.size() - 1) / 2];
    metrics = LayerMetrics(setup, median_traced, spans, Median(walls),
                           Median(traced_walls));
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/trace-" + w->name +
                               "-seed" + std::to_string(args.seed) + ".json";
      if (spans.WriteChromeTrace(path)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        std::printf("could not write spans to %s\n", path.c_str());
      }
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
