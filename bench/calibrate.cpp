// Target-accuracy calibration harness (not a paper table).
//
// Runs FedAvg and FedHiSyn on every synthetic suite at full participation,
// IID and Dirichlet(0.3), and prints the final accuracies.  The per-suite
// targets in core::target_accuracy() are chosen from these numbers the same
// way the paper picked 96/86/75/33: high enough to be discriminative, low
// enough that the stronger methods reach them within the round budget.
//
// Declared as an ExperimentGrid; --grid-jobs N --dispatch process fans the
// cells out over N worker processes.
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
  const auto grid_options = exp::handle_grid_flags(flags, {"dataset", "partition"});
  const bool full = full_scale_enabled();

  exp::ExperimentGrid grid;
  grid.base().with_seed(7);
  grid.base().eval_every = 5;
  grid.datasets(
          exp::datasets_from_flags(flags, {"mnist", "emnist", "cifar10", "cifar100"}))
      .partitions(exp::partitions_from_flags(flags, {{true, 0.0}, {false, 0.3}}))
      .methods({"FedAvg", "FedHiSyn"})
      .auto_scale(full)
      .override_each([](exp::ExperimentSpec& spec) {
        // Calibration observes final accuracy; disable the target metric.
        spec.target = 0.99f;
      });
  const auto cells = exp::run_grid(grid.expand(), grid_options);

  Table table({"dataset", "partition", "method", "final acc", "best acc"});
  for (const auto& cell : cells) {
    table.add_row({cell.spec.build.dataset, cell.spec.partition_label(),
                   cell.spec.method, Table::fmt_pct(cell.result.final_accuracy),
                   Table::fmt_pct(cell.result.best_accuracy)});
  }
  table.print();
  table.maybe_write_csv("calibrate");
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
