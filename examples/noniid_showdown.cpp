// Non-IID showdown: all seven Table-1 methods on one hard setting — the
// CIFAR10-like suite, Dirichlet(0.3) label skew, 50% participation,
// heterogeneous fleet — printing a leaderboard with the paper's metric
// (normalised models-to-target) plus final accuracy.
//
// The seven runs are one ExperimentGrid over the method axis: pass
// --grid-jobs 4 --dispatch process to race the methods in four worker
// processes (the leaderboard is byte-identical to the serial sweep).
//
// Run: ./build/example_noniid_showdown   (FEDHISYN_FULL=1 for paper scale)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

static int run(int argc, char** argv) {
  using namespace fedhisyn;
  const auto flags = Flags::parse(argc - 1, argv + 1);
  const auto grid_options = exp::handle_grid_flags(flags);
  const bool full = full_scale_enabled();

  exp::ExperimentGrid grid;
  grid.base().with_seed(13);
  grid.base().build.partition = {false, 0.3};
  grid.base().opts.participation = 0.5;
  grid.base().opts.clusters = full ? 10 : 5;
  grid.base().eval_every = 2;
  grid.datasets({"cifar10"}).methods(core::table1_methods()).auto_scale(full);

  // The shared driver prints per-cell progress (with an ETA) to stderr;
  // --quiet suppresses it, --dispatch=process crash-isolates the cells.
  auto cells = exp::run_grid(grid.expand(), grid_options);
  const float target = cells.front().spec.resolved_target();

  // Leaderboard: reached-target first (fewest normalised rounds), then by
  // final accuracy.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const exp::CellResult& a, const exp::CellResult& b) {
                     const bool ra = a.result.comm_to_target.has_value();
                     const bool rb = b.result.comm_to_target.has_value();
                     if (ra != rb) return ra;
                     if (ra && rb) return *a.result.comm_to_target < *b.result.comm_to_target;
                     return a.result.final_accuracy > b.result.final_accuracy;
                   });

  std::printf("\n== cifar10-like, Dirichlet(0.3), 50%% participation, target %.0f%% ==\n",
              target * 100.0);
  Table table({"rank", "method", "models-to-target", "final acc", "best acc"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& result = cells[i].result;
    table.add_row({Table::fmt_i(static_cast<long long>(i + 1)), cells[i].spec.method,
                   result.comm_to_target.has_value()
                       ? Table::fmt_f(*result.comm_to_target, 1)
                       : "X",
                   Table::fmt_pct(result.final_accuracy),
                   Table::fmt_pct(result.best_accuracy)});
  }
  table.print();
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
