#include "src/shortest/oracle.h"

#include "src/obs/registry.h"
#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/util/fault.h"

namespace urpsm {

double DijkstraOracle::Distance(VertexId u, VertexId v) {
  ++query_count_;
  return BidirectionalDistance(*graph_, u, v);
}

std::vector<VertexId> DijkstraOracle::Path(VertexId u, VertexId v) {
  return DijkstraPath(*graph_, u, v);
}

double BillingOracle::Distance(VertexId u, VertexId v) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  ++query_count_;
  return inner_->Distance(u, v);
}

void BillingOracle::BatchQuery(const std::vector<VertexId>& sources,
                               const std::vector<VertexId>& targets,
                               std::vector<double>* out) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  query_count_.fetch_add(static_cast<std::int64_t>(sources.size()) *
                             static_cast<std::int64_t>(targets.size()),
                         std::memory_order_relaxed);
  inner_->BatchQuery(sources, targets, out);
}

std::vector<VertexId> BillingOracle::Path(VertexId u, VertexId v) {
  return inner_->Path(u, v);
}

void BillingOracle::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  reg->RegisterCallbackGauge(
      "oracle.queries",
      [this] { return static_cast<double>(query_count()); });
}

}  // namespace urpsm
