#ifndef URPSM_SRC_SIM_DISPATCH_WINDOW_H_
#define URPSM_SRC_SIM_DISPATCH_WINDOW_H_

#include <memory>

#include "src/core/planner.h"

namespace urpsm {

// Former names of the windowed pruneGreedyDP planner, kept because
// perfbench/ still includes this header. GreedyDpPlanner plans whole
// dispatch windows itself; new code uses it and MakePruneGreedyDpFactory
// (or MakeGreedyDpFactory) directly.
using DispatchWindowPlanner = GreedyDpPlanner;

inline PlannerFactory MakeDispatchWindowFactory(PlannerConfig config) {
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<GreedyDpPlanner>(ctx, fleet, config);
  };
}

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_DISPATCH_WINDOW_H_
