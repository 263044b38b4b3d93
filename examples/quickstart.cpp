// Quickstart: train FedHiSyn and FedAvg on the MNIST-like synthetic suite
// with a heterogeneous fleet and Non-IID Dirichlet(0.3) data, and print the
// accuracy/communication trajectory of both.
//
// The two runs are declared as a one-axis ExperimentGrid — pass
// --grid-jobs 2 --dispatch process to run both methods concurrently in two
// worker processes (same numbers), and --out quickstart.jsonl for
// machine-readable results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

static int run(int argc, char** argv) {
  using namespace fedhisyn;
  const auto flags = Flags::parse(argc - 1, argv + 1);
  const auto grid_options = exp::handle_grid_flags(flags);

  // 1. Describe the experiment once: synthetic MNIST stand-in, Dirichlet(0.3)
  //    label skew, fleet with 5..50 achievable epochs per round, the paper's
  //    §6.1 hyper-parameters (the FlOptions defaults), seed 7.
  exp::ExperimentGrid grid;
  grid.base().with_seed(7);
  grid.base().build.partition = {false, 0.3};
  grid.base().eval_every = 5;
  grid.datasets({"mnist"})
      .methods({"FedHiSyn", "FedAvg"})
      .auto_scale(full_scale_enabled());

  // 2. Run the grid (one cell at a time by default; --grid-jobs 2
  //    --dispatch process fans it out over crash-isolated worker processes).
  const auto cells = exp::run_grid(grid.expand(), grid_options);

  // 3. The per-round trajectory is recorded in each cell's history.
  const float target = cells.front().spec.resolved_target();
  Table table({"method", "round", "test acc", "comm (FedAvg rounds)"});
  for (const auto& cell : cells) {
    for (const auto& record : cell.result.history) {
      table.add_row({cell.spec.method, Table::fmt_i(record.round),
                     Table::fmt_pct(record.accuracy),
                     Table::fmt_f(record.comm_rounds, 1)});
    }
    std::printf("%s: final %.2f%%, reached %.0f%% target at %s normalised rounds\n",
                cell.spec.method.c_str(), cell.result.final_accuracy * 100.0,
                target * 100.0,
                cell.result.comm_to_target.has_value()
                    ? Table::fmt_f(*cell.result.comm_to_target, 1).c_str()
                    : "X (never)");
  }
  std::printf("\n");
  table.print();
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
