#include "src/sim/fleet.h"

#include <cassert>
#include <utility>

namespace urpsm {

Fleet::Fleet(std::vector<Worker> workers, const RoadNetwork* graph)
    : workers_(std::move(workers)), graph_(graph) {
  routes_.reserve(workers_.size());
  state_cache_.resize(workers_.size());
  commit_log_.resize(workers_.size());
  committed_by_worker_.resize(workers_.size(), 0.0);
  for (const Worker& w : workers_) {
    routes_.emplace_back(w.initial_location, 0.0);
  }
}

const RouteState& Fleet::CachedState(WorkerId w, PlanningContext* ctx) {
  StateCacheEntry& entry = state_cache_[static_cast<std::size_t>(w)];
  const Route& rt = routes_[static_cast<std::size_t>(w)];
  if (!entry.valid || entry.route_version != rt.version()) {
    BuildRouteState(rt, ctx, &entry.state);
    entry.route_version = rt.version();
    entry.valid = true;
  }
  return entry.state;
}

void Fleet::AttachIndex(GridIndex* index) {
  index_ = index;
  for (const Worker& w : workers_) {
    index_->Insert(w.id, anchor_point(w.id));
  }
}

void Fleet::PushHeap(WorkerId w) {
  const Route& rt = routes_[static_cast<std::size_t>(w)];
  if (rt.empty()) return;
  heap_.push({rt.anchor_time() + rt.leg_costs().front(), w, rt.version()});
}

void Fleet::CommitFront(WorkerId w) {
  const auto ws = static_cast<std::size_t>(w);
  Route& rt = routes_[ws];
  assert(!rt.empty());
  const Point from = anchor_point(w);
  committed_by_worker_[ws] += rt.leg_costs().front();
  const Stop stop = rt.PopFront();
  commit_log_[ws].push_back({stop, rt.anchor_time()});
  if (index_ != nullptr) index_->Move(w, from, anchor_point(w));
  PushHeap(w);
}

void Fleet::AdvanceTo(double t) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    const auto ws = static_cast<std::size_t>(top.worker);
    if (top.version != routes_[ws].version()) {
      heap_.pop();
      continue;
    }
    if (top.arrival > t) break;
    heap_.pop();
    CommitFront(top.worker);
  }
}

void Fleet::Touch(WorkerId w, double t) {
  Route& rt = routes_[static_cast<std::size_t>(w)];
  while (!rt.empty() && rt.anchor_time() + rt.leg_costs().front() <= t) {
    CommitFront(w);
  }
  if (rt.empty() && rt.anchor_time() < t) rt.set_anchor_time(t);
}

void Fleet::ApplyInsertion(WorkerId w, const Request& r, int i, int j,
                           DistanceOracle* oracle) {
  Route& rt = routes_[static_cast<std::size_t>(w)];
  rt.Insert(r, i, j, oracle);
  assignment_[r.id] = w;
  PushHeap(w);
}

void Fleet::ReplaceRoute(WorkerId w, const Request& r, std::vector<Stop> stops,
                         DistanceOracle* oracle) {
  Route& rt = routes_[static_cast<std::size_t>(w)];
  rt.SetStops(std::move(stops), oracle);
  assignment_[r.id] = w;
  PushHeap(w);
}

void Fleet::FinishAll() {
  for (WorkerId w = 0; w < size(); ++w) {
    while (!routes_[static_cast<std::size_t>(w)].empty()) CommitFront(w);
  }
}

WorkerId Fleet::AssignedWorker(RequestId r) const {
  auto it = assignment_.find(r);
  return it == assignment_.end() ? kInvalidWorker : it->second;
}

double Fleet::CommittedStopTime(RequestId r, StopKind kind) const {
  const WorkerId w = AssignedWorker(r);
  if (w == kInvalidWorker) return kInf;
  for (const CommittedStop& c : CommitLog(w)) {
    if (c.stop.request == r && c.stop.kind == kind) return c.time;
  }
  return kInf;
}

double Fleet::PickupTime(RequestId r) const {
  return CommittedStopTime(r, StopKind::kPickup);
}

double Fleet::DropoffTime(RequestId r) const {
  return CommittedStopTime(r, StopKind::kDropoff);
}

double Fleet::committed_distance() const {
  double total = 0.0;
  for (const double d : committed_by_worker_) total += d;
  return total;
}

double Fleet::TotalPlannedDistance() const {
  double total = committed_distance();
  for (const Route& rt : routes_) total += rt.RemainingCost();
  return total;
}

}  // namespace urpsm
