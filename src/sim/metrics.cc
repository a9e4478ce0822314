#include "src/sim/metrics.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace urpsm {

SimReport AverageReports(const std::vector<SimReport>& reports) {
  assert(!reports.empty());
  SimReport avg;
  avg.algorithm = reports.front().algorithm;
  avg.total_requests = reports.front().total_requests;
  avg.num_threads = reports.front().num_threads;
  const double n = static_cast<double>(reports.size());
  double served = 0.0, processed = 0.0, queries = 0.0, index_mem = 0.0;
  double rejected = 0.0, shed = 0.0, dnf = 0.0;
  double shed_deadline = 0.0, shed_overload = 0.0, shed_drain = 0.0;
  std::map<std::string, std::pair<double, int>> metric_sums;  // sum, runs
  for (const SimReport& r : reports) {
    served += r.served_requests;
    processed += r.processed_requests;
    rejected += r.rejected_requests;
    shed += r.shed_requests;
    dnf += r.dnf_requests;
    shed_deadline += static_cast<double>(r.shed_deadline);
    shed_overload += static_cast<double>(r.shed_overload);
    shed_drain += static_cast<double>(r.shed_drain);
    avg.served_rate += r.served_rate / n;
    avg.unified_cost += r.unified_cost / n;
    avg.total_distance += r.total_distance / n;
    avg.penalty_sum += r.penalty_sum / n;
    // Latency distribution: pool the per-request samples. An average of
    // per-run percentiles is not a percentile of the pooled runs (two
    // skewed runs can move it arbitrarily far from the true pooled p50).
    avg.response_stats.Merge(r.response_stats);
    queries += static_cast<double>(r.distance_queries);
    index_mem += static_cast<double>(r.index_memory_bytes);
    avg.wall_seconds += r.wall_seconds / n;
    avg.timed_out = avg.timed_out || r.timed_out;
    avg.mean_pickup_wait_min += r.mean_pickup_wait_min / n;
    avg.mean_detour_ratio += r.mean_detour_ratio / n;
    avg.makespan_min = std::max(avg.makespan_min, r.makespan_min);
    // The drain cutoff behaves like a run parameter: max-propagate.
    avg.drain_cutoff_min = std::max(avg.drain_cutoff_min, r.drain_cutoff_min);
    avg.trace_enabled = avg.trace_enabled || r.trace_enabled;
    // Registry snapshots: element-wise mean over the runs that reported
    // the key (percentile sub-keys of a pooled distribution would need
    // the digests — response_stats above carries those for latency; the
    // map keeps counter/gauge magnitudes comparable across sweeps).
    for (const auto& [k, v] : r.metrics) {
      metric_sums[k].first += v;
      metric_sums[k].second += 1;
    }
  }
  for (const auto& [k, sc] : metric_sums) {
    avg.metrics[k] = sc.first / static_cast<double>(sc.second);
  }
  avg.avg_response_ms = avg.response_stats.mean();
  avg.p50_response_ms = avg.response_stats.Percentile(50);
  avg.p95_response_ms = avg.response_stats.Percentile(95);
  avg.p99_response_ms = avg.response_stats.Percentile(99);
  avg.max_response_ms = avg.response_stats.max();
  avg.served_requests = static_cast<int>(std::lround(served / n));
  avg.processed_requests = static_cast<int>(std::lround(processed / n));
  avg.rejected_requests = static_cast<int>(std::lround(rejected / n));
  avg.shed_requests = static_cast<int>(std::lround(shed / n));
  avg.dnf_requests = static_cast<int>(std::lround(dnf / n));
  avg.shed_deadline = std::llround(shed_deadline / n);
  avg.shed_overload = std::llround(shed_overload / n);
  avg.shed_drain = std::llround(shed_drain / n);
  avg.distance_queries = static_cast<std::int64_t>(std::llround(queries / n));
  avg.index_memory_bytes =
      static_cast<std::int64_t>(std::llround(index_mem / n));
  return avg;
}

namespace {

constexpr double kTimeEps = 1e-6;  // float tolerance on schedule arithmetic

InvariantReport Fail(const std::string& msg) { return {false, msg}; }

}  // namespace

InvariantReport CheckAccounting(const SimReport& r) {
  const auto count = [](const char* name, long long v) {
    return std::string(name) + "=" + std::to_string(v);
  };
  if (r.served_requests < 0 || r.rejected_requests < 0 ||
      r.shed_requests < 0 || r.dnf_requests < 0 || r.processed_requests < 0 ||
      r.shed_deadline < 0 || r.shed_overload < 0 || r.shed_drain < 0) {
    return Fail("negative accounting bucket");
  }
  if (r.served_requests + r.rejected_requests + r.shed_requests +
          r.dnf_requests !=
      r.total_requests) {
    return Fail("served + rejected + shed + dnf != total (" +
                count("served", r.served_requests) + ", " +
                count("rejected", r.rejected_requests) + ", " +
                count("shed", r.shed_requests) + ", " +
                count("dnf", r.dnf_requests) + ", " +
                count("total", r.total_requests) + ")");
  }
  if (r.rejected_requests != r.processed_requests - r.served_requests) {
    return Fail("rejected != processed - served (" +
                count("rejected", r.rejected_requests) + ", " +
                count("processed", r.processed_requests) + ", " +
                count("served", r.served_requests) + ")");
  }
  if (r.shed_deadline + r.shed_overload + r.shed_drain !=
      static_cast<std::int64_t>(r.shed_requests)) {
    return Fail("shed by-reason counts do not sum to shed_requests (" +
                count("deadline", r.shed_deadline) + ", " +
                count("overload", r.shed_overload) + ", " +
                count("drain", r.shed_drain) + ", " +
                count("shed", r.shed_requests) + ")");
  }
  return {};
}

InvariantReport VerifyInvariants(const Fleet& fleet,
                                 const std::vector<Request>& requests,
                                 bool mid_run) {
  // Requests are looked up by id, never by vector position: workloads with
  // gappy or reordered ids must verify the same way dense ones do.
  std::unordered_map<RequestId, const Request*> by_id;
  by_id.reserve(requests.size());
  for (const Request& r : requests) by_id.emplace(r.id, &r);
  std::unordered_set<RequestId> seen_served;
  for (WorkerId w = 0; w < fleet.size(); ++w) {
    const Worker& worker = fleet.worker(w);
    int load = 0;
    double prev_time = 0.0;
    std::unordered_set<RequestId> onboard;
    for (const Fleet::CommittedStop& cs : fleet.CommitLog(w)) {
      const auto it = by_id.find(cs.stop.request);
      if (it == by_id.end()) {
        return Fail("committed stop references unknown request " +
                    std::to_string(cs.stop.request));
      }
      const Request& r = *it->second;
      std::ostringstream at;
      at << "worker " << w << ", request " << r.id << ", t=" << cs.time;
      if (cs.time + kTimeEps < prev_time) {
        return Fail("time went backwards at " + at.str());
      }
      prev_time = cs.time;
      if (cs.stop.kind == StopKind::kPickup) {
        if (!onboard.insert(cs.stop.request).second) {
          return Fail("double pickup at " + at.str());
        }
        load += r.capacity;
        if (load > worker.capacity) {
          return Fail("capacity exceeded at " + at.str());
        }
      } else {
        if (!onboard.erase(cs.stop.request)) {
          return Fail("drop-off before pickup at " + at.str());
        }
        load -= r.capacity;
        if (cs.time > r.deadline + kTimeEps) {
          return Fail("deadline violated at " + at.str());
        }
        if (!seen_served.insert(cs.stop.request).second) {
          return Fail("request served twice at " + at.str());
        }
        if (fleet.AssignedWorker(cs.stop.request) != w) {
          return Fail("served by unassigned worker at " + at.str());
        }
      }
    }
    if (!mid_run && !onboard.empty()) {
      return Fail("worker " + std::to_string(w) +
                  " finished with passengers on board");
    }
  }
  // (4) served/rejected partition. Mid-run, an assigned request may still
  // be en route (drop-off pending); a delivery without an assignment is a
  // violation at any point.
  for (const Request& r : requests) {
    const bool assigned = fleet.AssignedWorker(r.id) != kInvalidWorker;
    const bool delivered = seen_served.contains(r.id);
    if (delivered && !assigned) {
      return Fail("request " + std::to_string(r.id) +
                  " delivered without assignment");
    }
    if (!mid_run && assigned != delivered) {
      return Fail("request " + std::to_string(r.id) +
                  " assigned/delivered mismatch");
    }
  }
  return {};
}

}  // namespace urpsm
