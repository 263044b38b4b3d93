// Figure 6 — "Influence of the number K of clustered classes" on FedHiSyn.
//
// MNIST-like and CIFAR10-like suites, 50% participation, Dirichlet(0.3);
// K swept over the paper's {1, 10, 20, 30, 40, 50} (scaled down with the
// reduced fleet).  Metric: final global-model accuracy.  Declared as an
// ExperimentGrid over the clusters axis; --grid-jobs N --dispatch process
// fans the cells out over N worker processes.
//
// Expected shape (paper): accuracy rises from K=1, peaks at a moderate K
// (10 with 100 devices), then falls as rings become too small.
#include <cstdio>
#include <string>
#include <vector>

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
  const auto grid_options = exp::handle_grid_flags(flags, {"dataset"});
  const bool full = full_scale_enabled();
  const std::vector<std::size_t> ks =
      full ? std::vector<std::size_t>{1, 10, 20, 30, 40, 50}
           : std::vector<std::size_t>{1, 3, 5, 8, 10, 15};

  exp::ExperimentGrid grid;
  grid.base().with_seed(61);
  grid.base().build.partition = {false, 0.3};
  grid.base().method = "FedHiSyn";
  grid.base().opts.participation = 0.5;
  grid.base().eval_every = 5;
  grid.datasets(exp::datasets_from_flags(flags, {"mnist", "cifar10"}))
      .clusters(ks)
      .auto_scale(full)
      .override_each([full](exp::ExperimentSpec& spec) {
        spec.build.use_cnn = full && spec.build.dataset != "mnist";
        // Final-accuracy sweep; disable the rounds-to-target metric.
        spec.target = 0.99f;
      });
  const auto cells = exp::run_grid(grid.expand(), grid_options);

  // dataset outermost, K innermost: one table of |ks| rows per dataset.
  for (std::size_t block = 0; block + ks.size() <= cells.size(); block += ks.size()) {
    const std::string& dataset = cells[block].spec.build.dataset;
    std::printf(
        "== Figure 6: FedHiSyn final accuracy vs K (%s, 50%% participation) ==\n",
        dataset.c_str());
    Table table({"K", "final acc", "best acc", "d2d transfers/round"});
    for (std::size_t i = block; i < block + ks.size(); ++i) {
      const auto& cell = cells[i];
      // The final round is always evaluated, so the last record carries the
      // cumulative device-to-device transfer count.
      const double d2d_per_round =
          cell.result.history.empty()
              ? 0.0
              : cell.result.history.back().d2d_transfers / cell.spec.build.scale.rounds;
      table.add_row({"K=" + std::to_string(cell.spec.opts.clusters),
                     Table::fmt_pct(cell.result.final_accuracy),
                     Table::fmt_pct(cell.result.best_accuracy),
                     Table::fmt_f(d2d_per_round, 1)});
    }
    table.print();
    table.maybe_write_csv("fig6_" + dataset);
    std::printf("\n");
  }
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
