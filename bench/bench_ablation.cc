// Ablations of the design choices DESIGN.md calls out, beyond the Lemma-8
// pruning ablation (bench_pruning):
//   (a) exact-reject check: re-reject on the exact Delta* instead of only
//       the decision phase's lower bound (off in the paper);
//   (b) batch parameters: window length and group size;
//   (c) kinetic expansion budget (how the tree blow-up is contained).

#include <cstdio>

#include "bench/harness.h"

using namespace urpsm;
using namespace urpsm::bench;

int main(int argc, char** argv) {
  InitBench(argc, argv);
  const City city = LoadCity(/*nyc=*/false);
  Rng rng(3);
  const Defaults d;
  const std::vector<Worker> workers = GenerateWorkers(
      city.graph, city.default_workers, d.capacity_mean, &rng);

  // (a) exact reject check.
  {
    TablePrinter t({"exact_reject_check", "unified cost", "served rate"});
    for (bool on : {false, true}) {
      PlannerConfig cfg;
      cfg.exact_reject_check = on;
      Simulation sim(&city.graph, city.labels.get(), workers, &city.requests,
                     SimOptions{});
      const SimReport rep = sim.Run(MakePruneGreedyDpFactory(cfg));
      t.AddRow({on ? "on" : "off (paper)",
                TablePrinter::Num(rep.unified_cost, 1),
                TablePrinter::Num(rep.served_rate, 3)});
    }
    std::printf("Ablation (a) — exact reject check (Chengdu)\n%s\n",
                t.ToString().c_str());
  }

  // (b) batch window and group size.
  {
    TablePrinter t({"window (s)", "group size", "unified cost",
                    "served rate"});
    for (double window_min : {0.05, 0.1, 0.5, 2.0}) {
      for (int group : {1, 3, 6}) {
        Simulation sim(&city.graph, city.labels.get(), workers,
                       &city.requests, SimOptions{});
        const SimReport rep =
            sim.Run(MakeBatchFactory({}, window_min, group));
        t.AddRow({TablePrinter::Num(window_min * 60.0, 0),
                  std::to_string(group),
                  TablePrinter::Num(rep.unified_cost, 1),
                  TablePrinter::Num(rep.served_rate, 3)});
      }
    }
    std::printf("Ablation (b) — batch parameters (Chengdu)\n%s\n",
                t.ToString().c_str());
  }

  // (c) kinetic expansion budget.
  {
    TablePrinter t({"budget", "unified cost", "served rate",
                    "avg resp (ms)"});
    std::vector<Request> requests = city.requests;
    SetDeadlineOffsets(&requests, 20.0);  // longer routes stress the tree
    SetPenaltyFactors(&requests, city.default_penalty_factor,
                      city.labels.get());
    for (std::int64_t budget : {200, 2000, 20000, 200000}) {
      SimOptions options;
      options.wall_limit_seconds = EnvWallLimit();
      Simulation sim(&city.graph, city.labels.get(), workers, &requests,
                     options);
      const SimReport rep = sim.Run(MakeKineticFactory({}, budget));
      t.AddRow({std::to_string(budget),
                rep.timed_out ? "DNF" : TablePrinter::Num(rep.unified_cost, 1),
                TablePrinter::Num(rep.served_rate, 3),
                TablePrinter::Num(rep.avg_response_ms, 3)});
    }
    std::printf("Ablation (c) — kinetic expansion budget (Chengdu, er = 20 "
                "min)\n%s\n",
                t.ToString().c_str());
  }
  return 0;
}
