// Tests for the declarative experiment layer: grid expansion (axis product,
// call-order nesting, override hooks), the algorithm registry, spec
// label()/to_key() stability, and the GridScheduler thread backend (ordered
// collection, one cell at a time).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

namespace fedhisyn::exp {
namespace {

/// A grid whose cells run in well under a second: 6 devices, 2 rounds.
ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.base().with_seed(11);
  grid.base().build.scale.devices = 6;
  grid.base().build.scale.train_samples_per_device = 20;
  grid.base().build.scale.test_samples = 60;
  grid.base().build.scale.rounds = 2;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 2;
  grid.base().target = 0.999f;
  return grid;
}

// ------------------------------------------------------------------ grid --

TEST(Grid, AxisProductAndCallOrderNesting) {
  ExperimentGrid grid;
  grid.datasets({"mnist", "emnist"})
      .participations({1.0, 0.5, 0.1})
      .methods({"FedAvg", "FedHiSyn"});
  EXPECT_EQ(grid.cell_count(), 12u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 12u);
  // First axis set (dataset) is outermost, methods innermost.
  EXPECT_EQ(specs[0].build.dataset, "mnist");
  EXPECT_EQ(specs[0].opts.participation, 1.0);
  EXPECT_EQ(specs[0].method, "FedAvg");
  EXPECT_EQ(specs[1].method, "FedHiSyn");
  EXPECT_EQ(specs[2].opts.participation, 0.5);
  EXPECT_EQ(specs[6].build.dataset, "emnist");
  EXPECT_EQ(specs[11].build.dataset, "emnist");
  EXPECT_EQ(specs[11].opts.participation, 0.1);
  EXPECT_EQ(specs[11].method, "FedHiSyn");
}

TEST(Grid, UnsetAxesInheritTheBaseSpec) {
  ExperimentGrid grid;
  grid.base().with_seed(42);
  grid.base().method = "SCAFFOLD";
  grid.base().opts.participation = 0.25;
  grid.participations({0.5});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].method, "SCAFFOLD");       // no method axis -> base value
  EXPECT_EQ(specs[0].opts.participation, 0.5);  // the axis overrode the base
  EXPECT_EQ(specs[0].opts.seed, 42u);
}

TEST(Grid, OverrideHookSeesAxisValues) {
  // The table1 rule: clusters as a function of participation.
  ExperimentGrid grid;
  grid.participations({1.0, 0.1}).override_each([](ExperimentSpec& spec) {
    spec.opts.clusters = spec.opts.participation <= 0.11 ? 1 : 5;
  });
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].opts.clusters, 5u);
  EXPECT_EQ(specs[1].opts.clusters, 1u);
}

TEST(Grid, AutoScaleSetsPerDatasetScaleAndTarget) {
  ExperimentGrid grid;
  grid.datasets({"mnist", "cifar10"}).auto_scale(/*full=*/false);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].build.scale.rounds, core::default_scale("mnist", false).rounds);
  EXPECT_EQ(specs[1].build.scale.rounds, core::default_scale("cifar10", false).rounds);
  EXPECT_FLOAT_EQ(specs[0].resolved_target(), core::target_accuracy("mnist"));
  EXPECT_FLOAT_EQ(specs[1].resolved_target(), core::target_accuracy("cifar10"));
}

TEST(Grid, HeterogeneityAxisSwitchesTheFleetKind) {
  ExperimentGrid grid;
  grid.heterogeneity_ratios({2.0, 10.0});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].build.fleet_kind, core::FleetKind::kRatio);
  EXPECT_EQ(specs[0].build.fleet_ratio_h, 2.0);
  EXPECT_EQ(specs[1].build.fleet_ratio_h, 10.0);
}

TEST(Grid, EmptyAxisAndDuplicateAxisAreRejected) {
  ExperimentGrid grid;
  EXPECT_THROW(grid.datasets({}), CheckError);
  ExperimentGrid grid2;
  grid2.methods({"FedAvg"});
  EXPECT_THROW(grid2.methods({"FedHiSyn"}), CheckError);
}

// -------------------------------------------------------------- registry --

TEST(Registry, RoundTripForEveryTable1Method) {
  const auto registered = core::registered_methods();
  ASSERT_GE(registered.size(), 8u);
  EXPECT_TRUE(std::is_sorted(registered.begin(), registered.end()));
  const auto world = tiny_grid().expand();
  const auto built = build_for(world[0]);
  for (const auto& name : core::table1_methods()) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << name;
    const auto algorithm =
        core::make_algorithm(name, built->context(world[0].opts));
    ASSERT_NE(algorithm, nullptr);
    EXPECT_EQ(algorithm->name(), name);
  }
  EXPECT_NE(std::find(registered.begin(), registered.end(), "FedAsync"),
            registered.end());
}

TEST(Registry, UnknownNameThrowsAndNamesTheKnownMethods) {
  const auto world = tiny_grid().expand();
  const auto built = build_for(world[0]);
  try {
    core::make_algorithm("FedBogus", built->context(world[0].opts));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FedBogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FedHiSyn"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationIsRejected) {
  EXPECT_THROW(core::register_algorithm(
                   "FedAvg", "duplicate", [](const core::FlContext&) {
                     return std::unique_ptr<core::FlAlgorithm>();
                   }),
               CheckError);
}

TEST(Registry, EveryMethodHasADescription) {
  for (const auto& name : core::registered_methods()) {
    EXPECT_FALSE(core::method_description(name).empty()) << name;
  }
  EXPECT_THROW(core::method_description("FedBogus"), CheckError);
}

// ------------------------------------------------------------------ spec --

TEST(Spec, LabelAndKeyAreStable) {
  ExperimentSpec spec;
  spec.with_seed(101);
  spec.build.dataset = "mnist";
  spec.build.partition = {false, 0.3};
  spec.opts.participation = 0.5;
  spec.opts.clusters = 5;
  spec.method = "FedHiSyn";
  spec.target = 0.85f;
  spec.eval_every = 3;
  // Pinned strings: result sinks and caches key on them, so accidental
  // format changes should fail loudly here.
  EXPECT_EQ(spec.label(), "mnist/Dirichlet(0.3)/p50/FedHiSyn/s101");
  EXPECT_EQ(spec.to_key(),
            "ds=mnist|dev=100|spd=100|test=2000|part=dirichlet|beta=0.3"
            "|fleet=uniform|cnn=0|hidden=auto|bseed=101|method=FedHiSyn"
            "|rounds=100|lr=0.1|batch=50|epochs=5|p=0.5|K=5|agg=uniform"
            "|ring=small-to-large|direct=1|mu=0.01|mom=0|alpha=0.3|seed=101"
            "|target=0.85|eval=3");
}

TEST(Spec, KeyDistinguishesEveryKnob) {
  ExperimentSpec base;
  const std::string reference = base.to_key();
  ExperimentSpec changed = base;
  changed.method = "FedAvg";
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.opts.lr = 0.05f;
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.build.partition.iid = false;  // the default is IID
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.with_seed(7);
  EXPECT_NE(changed.to_key(), reference);
  // build_key ignores run-time knobs: cells differing only by method share
  // a build.
  changed = base;
  changed.method = "SCAFFOLD";
  changed.opts.lr = 0.2f;
  EXPECT_EQ(changed.build_key(), base.build_key());
}

TEST(Spec, ResolvedTargetFallsBackToTheSuiteDefault) {
  ExperimentSpec spec;
  spec.build.dataset = "emnist";
  EXPECT_FLOAT_EQ(spec.resolved_target(), core::target_accuracy("emnist"));
  spec.target = 0.5f;
  EXPECT_FLOAT_EQ(spec.resolved_target(), 0.5f);
}

// ------------------------------------------------------------- scheduler --

TEST(Scheduler, ResultsAreCollectedInSpecOrder) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn", "FedAT"});
  const auto specs = grid.expand();
  const auto cells = GridScheduler().run(specs);
  ASSERT_EQ(cells.size(), specs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].spec.label(), specs[i].label());
  }
}

TEST(Scheduler, ProgressCallbackFiresOncePerCell) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn"});
  const auto specs = grid.expand();
  GridScheduler::Options options;
  std::size_t calls = 0;
  std::size_t last_total = 0;
  options.on_cell = [&](std::size_t done, std::size_t total, const CellResult& cell) {
    EXPECT_EQ(done, calls + 1);
    EXPECT_EQ(cell.spec.label(), specs[calls].label());  // spec order
    ++calls;
    last_total = total;
  };
  GridScheduler(options).run(specs);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(last_total, 2u);
}

TEST(Scheduler, CellExceptionsPropagate) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedBogus"});
  EXPECT_THROW(GridScheduler().run(grid.expand()), CheckError);
}

TEST(Scheduler, ThreadBackendRejectsConcurrentCells) {
  // Concurrent cells are the process backend's; the thread backend runs one
  // at a time and refuses a job count it would not honour.
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn"});
  GridScheduler::Options options;
  options.jobs = 2;
  options.backend = CellBackend::kThread;
  std::size_t calls = 0;
  options.on_cell = [&](std::size_t, std::size_t, const CellResult&) { ++calls; };
  EXPECT_THROW(GridScheduler(options).run(grid.expand()), CheckError);
  EXPECT_EQ(calls, 0u);
}

TEST(Scheduler, ProcessWorkerThreadSlice) {
  GridScheduler::Options options;
  options.jobs = 4;
  options.total_threads = 8;
  options.backend = CellBackend::kProcess;
  const GridScheduler scheduler(options);
  EXPECT_EQ(scheduler.resolved_jobs(100), 4u);
  EXPECT_EQ(scheduler.resolved_jobs(2), 2u);  // clamped to the cell count
  EXPECT_EQ(scheduler.inner_threads(4), 2u);
  EXPECT_EQ(scheduler.inner_threads(8), 1u);
  EXPECT_EQ(scheduler.inner_threads(16), 1u);  // never zero
}

// ----------------------------------------------------------------- sinks --

TEST(Sinks, JsonlMarksUnreachedTargetsAsNull) {
  CellResult cell;
  cell.spec.build.dataset = "mnist";
  cell.result.final_accuracy = 0.5f;
  const auto line = to_jsonl_line(cell);
  EXPECT_NE(line.find("\"comm_to_target\":null"), std::string::npos);
  EXPECT_NE(line.find("\"rounds_to_target\":null"), std::string::npos);
  cell.result.comm_to_target = 12.0;
  cell.result.rounds_to_target = 9;
  const auto reached = to_jsonl_line(cell);
  EXPECT_NE(reached.find("\"comm_to_target\":12"), std::string::npos);
  EXPECT_NE(reached.find("\"rounds_to_target\":9"), std::string::npos);
}

}  // namespace
}  // namespace fedhisyn::exp
