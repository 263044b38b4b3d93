// fedhisyn_run — command-line driver for single experiments, built on the
// declarative experiment API (exp::ExperimentSpec + exp::run_cell).
//
//   fedhisyn_run --dataset cifar10 --method FedHiSyn --beta 0.3
//                --participation 0.5 --clusters 10 --rounds 50
//                --history-csv run.csv --save-model final.fhsw
//
// Flags (all optional; defaults follow the paper's §6.1 setting):
//   --dataset NAME        mnist|emnist|cifar10|cifar100        [mnist]
//   --method NAME         any registered algorithm              [FedHiSyn]
//   --list-methods        print the registered algorithms and exit
//   --rounds N            aggregation rounds                    [suite default]
//   --devices N           fleet size                            [scale default]
//   --iid                 IID partition (default: Dirichlet)
//   --beta X              Dirichlet concentration               [0.3]
//   --participation X     per-round participation prob.         [1.0]
//   --clusters K          number of k-means classes             [10]
//   --lr X / --epochs N / --batch N                             [0.1 / 5 / 50]
//   --momentum X          heavy-ball momentum for local SGD     [0]
//   --threads N           worker-pool size (also: FEDHISYN_THREADS env)
//   --ring-order NAME     small-to-large|large-to-small|random  [small-to-large]
//   --aggregation NAME    uniform|time|sample                   [uniform]
//   --heterogeneity H     use an exact-ratio fleet instead of the
//                         5..50-epochs fleet
//   --cnn                 use the paper's CNN (image suites)
//   --seed N                                                    [1]
//   --target X            rounds-to-target accuracy             [suite default]
//   --eval-every N                                              [1]
//   --out PATH            result as one JSONL line (or CSV with *.csv)
//   --trace PATH          Chrome-trace timeline of the run (FEDHISYN_TRACE)
//   --metrics-out PATH    counter/histogram registry dump (see exp/driver.hpp)
//   --history-csv PATH    write the per-round history as CSV
//   --save-model PATH     save the final global weights (.fhsw)
//
// Like every grid driver, the binary also understands --serve [BIND:]PORT
// (become a dispatch worker; see exp/dispatch.hpp), which is how a
// --dispatch=process parent spawns its workers, and rejects any flag
// outside these and the shared grid-driver set (exp/driver.hpp).
#include <cstdio>
#include <fstream>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/trace.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "exp/driver.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "nn/serialize.hpp"

namespace {

fedhisyn::sim::RingOrder parse_ring_order(const std::string& name) {
  using fedhisyn::sim::RingOrder;
  if (name == "small-to-large") return RingOrder::kSmallToLarge;
  if (name == "large-to-small") return RingOrder::kLargeToSmall;
  if (name == "random") return RingOrder::kRandom;
  std::fprintf(stderr, "unknown --ring-order '%s'\n", name.c_str());
  std::exit(2);
}

fedhisyn::core::AggregationRule parse_aggregation(const std::string& name) {
  using fedhisyn::core::AggregationRule;
  if (name == "uniform") return AggregationRule::kUniform;
  if (name == "time") return AggregationRule::kTimeWeighted;
  if (name == "sample") return AggregationRule::kSampleWeighted;
  std::fprintf(stderr, "unknown --aggregation '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace fedhisyn;
  const auto flags = Flags::parse(argc - 1, argv + 1);
  // Shared grid-driver flags (--threads, --list-methods, --out, ...) plus
  // this tool's experiment-definition flags; anything else is rejected.
  const auto grid_options = exp::handle_grid_flags(
      flags, {"dataset", "method", "rounds", "devices", "iid", "beta", "participation",
              "clusters", "lr", "epochs", "batch", "momentum", "ring-order", "aggregation",
              "heterogeneity", "cnn", "seed", "target", "eval-every", "history-csv",
              "save-model"});

  exp::ExperimentSpec spec;
  spec.build.dataset = flags.get("dataset", "mnist");
  spec.build.scale = core::default_scale(spec.build.dataset, full_scale_enabled());
  if (flags.has("rounds")) {
    spec.build.scale.rounds = static_cast<int>(flags.get_long("rounds", 0));
  }
  if (flags.has("devices")) {
    spec.build.scale.devices = static_cast<std::size_t>(flags.get_long("devices", 0));
  }
  spec.build.partition.iid = flags.get_bool("iid", false);
  spec.build.partition.beta = flags.get_double("beta", 0.3);
  if (flags.has("heterogeneity")) {
    spec.build.fleet_kind = core::FleetKind::kRatio;
    spec.build.fleet_ratio_h = flags.get_double("heterogeneity", 10.0);
  }
  spec.build.use_cnn = flags.get_bool("cnn", false);
  spec.with_seed(static_cast<std::uint64_t>(flags.get_long("seed", 1)));

  spec.method = flags.get("method", "FedHiSyn");
  spec.opts.lr = static_cast<float>(flags.get_double("lr", 0.1));
  spec.opts.local_epochs = static_cast<int>(flags.get_long("epochs", 5));
  spec.opts.batch_size = static_cast<int>(flags.get_long("batch", 50));
  spec.opts.participation = flags.get_double("participation", 1.0);
  spec.opts.clusters = static_cast<std::size_t>(flags.get_long("clusters", 10));
  spec.opts.momentum = static_cast<float>(flags.get_double("momentum", 0.0));
  spec.opts.ring_order = parse_ring_order(flags.get("ring-order", "small-to-large"));
  spec.opts.aggregation = parse_aggregation(flags.get("aggregation", "uniform"));
  if (flags.has("target")) {
    spec.target = static_cast<float>(flags.get_double("target", 0.5));
  }
  spec.eval_every = static_cast<int>(flags.get_long("eval-every", 1));

  std::printf("%s on %s: %zu devices, %s partition, %.0f%% participation, %d rounds\n",
              spec.method.c_str(), spec.build.dataset.c_str(), spec.build.scale.devices,
              spec.partition_label().c_str(), spec.opts.participation * 100.0,
              spec.build.scale.rounds);

  exp::CellHooks hooks;
  std::vector<float> final_weights;
  if (flags.has("save-model")) hooks.final_weights = &final_weights;
  const auto cell = exp::run_cell(spec, hooks);

  Table history({"round", "accuracy", "comm (FedAvg rounds)", "d2d"});
  for (const auto& record : cell.result.history) {
    history.add_row({Table::fmt_i(record.round), Table::fmt_pct(record.accuracy),
                     Table::fmt_f(record.comm_rounds, 1),
                     Table::fmt_f(record.d2d_transfers, 0)});
  }
  history.print();
  std::printf("final %.2f%%, best %.2f%%, target %.0f%%: %s\n",
              cell.result.final_accuracy * 100.0, cell.result.best_accuracy * 100.0,
              spec.resolved_target() * 100.0, cell.result.table_cell().c_str());
  // Timing goes to stderr: stdout stays byte-identical across thread counts
  // (the determinism check diffs it).
  std::fprintf(stderr, "wall: %.1fs\n", cell.seconds);

  if (!grid_options.trace_out.empty()) {
    trace::write_chrome_trace(grid_options.trace_out);
  }
  if (!grid_options.metrics_out.empty()) {
    counters::write_metrics(grid_options.metrics_out);
  }

  if (!grid_options.out.empty()) {
    exp::write_results(grid_options.out, {cell});
    std::printf("result written to %s\n", grid_options.out.c_str());
  }
  if (flags.has("history-csv")) {
    const std::string path = flags.get("history-csv", "");
    std::ofstream out(path);
    out << history.to_csv();
    std::printf("history written to %s\n", path.c_str());
  }
  if (flags.has("save-model")) {
    const std::string path = flags.get("save-model", "");
    nn::save_weights(path, final_weights);
    std::printf("model written to %s (%zu params)\n", path.c_str(), final_weights.size());
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
