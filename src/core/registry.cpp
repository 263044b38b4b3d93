#include "core/registry.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "core/fedat.hpp"
#include "core/fedasync.hpp"
#include "core/fedavg_family.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/scaffold.hpp"
#include "core/tafedavg.hpp"

namespace fedhisyn::core {

namespace {

struct Entry {
  std::string description;
  AlgorithmFactory factory;
};

struct Registry {
  Mutex mutex;
  std::map<std::string, Entry> factories FEDHISYN_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry instance;  // construct-on-first-use: safe during static init
  return instance;
}

}  // namespace

// Built-in registrations: the seven Table 1 methods plus FedAsync, in the
// same TU as the lookups so a static-library link can never drop them.
FEDHISYN_REGISTER_ALGORITHM(
    "FedHiSyn",
    "the paper's method: ring circulation inside speed classes, then server "
    "aggregation",
    [](const FlContext& ctx) { return std::make_unique<FedHiSynAlgo>(ctx); });
FEDHISYN_REGISTER_ALGORITHM(
    "FedAvg", "synchronous baseline: sample-weighted average of all uploads",
    [](const FlContext& ctx) {
      return std::make_unique<FedAvgFamily>(ctx, FedAvgVariant::kFedAvg);
    });
FEDHISYN_REGISTER_ALGORITHM(
    "TFedAvg",
    "time-slotted FedAvg: fast devices fit extra local epochs into the round",
    [](const FlContext& ctx) {
      return std::make_unique<FedAvgFamily>(ctx, FedAvgVariant::kTFedAvg);
    });
FEDHISYN_REGISTER_ALGORITHM(
    "FedProx", "FedAvg with a proximal term damping client drift (mu)",
    [](const FlContext& ctx) {
      return std::make_unique<FedAvgFamily>(ctx, FedAvgVariant::kFedProx);
    });
FEDHISYN_REGISTER_ALGORITHM(
    "TAFedAvg",
    "fully asynchronous: the server mixes every upload on arrival at a fixed "
    "rate (task-graph rounds run by ready counts)",
    [](const FlContext& ctx) { return std::make_unique<TAFedAvgAlgo>(ctx); });
FEDHISYN_REGISTER_ALGORITHM(
    "FedAsync",
    "asynchronous with polynomial staleness damping of each upload "
    "(task-graph rounds run by ready counts)",
    [](const FlContext& ctx) { return std::make_unique<FedAsyncAlgo>(ctx); });
FEDHISYN_REGISTER_ALGORITHM(
    "FedAT", "tiered asynchronism: synchronous within speed tiers, "
             "asynchronous across them",
    [](const FlContext& ctx) { return std::make_unique<FedATAlgo>(ctx); });
FEDHISYN_REGISTER_ALGORITHM(
    "SCAFFOLD", "control variates correct client drift (2x traffic per "
                "exchange)",
    [](const FlContext& ctx) { return std::make_unique<ScaffoldAlgo>(ctx); });

const std::vector<std::string>& table1_methods() {
  static const std::vector<std::string> methods = {
      "FedHiSyn", "FedAvg", "FedProx", "FedAT", "SCAFFOLD", "TAFedAvg", "TFedAvg"};
  return methods;
}

bool register_algorithm(std::string name, std::string description,
                        AlgorithmFactory factory) {
  FEDHISYN_CHECK_MSG(factory != nullptr, "null factory for '" << name << "'");
  FEDHISYN_CHECK_MSG(!description.empty(),
                     "empty description for '" << name << "'");
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  const bool inserted =
      reg.factories
          .emplace(std::move(name),
                   Entry{std::move(description), std::move(factory)})
          .second;
  FEDHISYN_CHECK_MSG(inserted, "algorithm registered twice");
  return true;
}

std::vector<std::string> registered_methods() {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, entry] : reg.factories) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string method_description(const std::string& name) {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  const auto it = reg.factories.find(name);
  FEDHISYN_CHECK_MSG(it != reg.factories.end(),
                     "unknown algorithm '" << name << "'");
  return it->second.description;
}

bool algorithm_registered(const std::string& name) {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  return reg.factories.count(name) > 0;
}

std::unique_ptr<FlAlgorithm> make_algorithm(const std::string& name,
                                            const FlContext& ctx) {
  AlgorithmFactory factory;
  {
    auto& reg = registry();
    MutexLock lock(reg.mutex);
    const auto it = reg.factories.find(name);
    if (it != reg.factories.end()) factory = it->second.factory;
  }
  if (!factory) {
    std::ostringstream known;
    for (const auto& method : registered_methods()) known << " " << method;
    FEDHISYN_CHECK_MSG(false, "unknown algorithm '" << name << "' (registered:"
                                                    << known.str() << ")");
  }
  auto algorithm = factory(ctx);
  FEDHISYN_CHECK_MSG(algorithm != nullptr,
                     "factory for '" << name << "' returned null");
  return algorithm;
}

}  // namespace fedhisyn::core
