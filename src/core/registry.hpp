// Self-registering algorithm registry: maps method names (the paper's
// Table 1 column labels) to factories producing FlAlgorithm instances.
//
// Algorithms register themselves with FEDHISYN_REGISTER_ALGORITHM at
// namespace scope; make_algorithm() and registered_methods() look the
// registrations up at runtime, so adding a method never touches a central
// if/else chain again.
//
// The built-in registrations live in registry.cpp itself, in the same
// translation unit as the lookup functions — any binary that touches the
// registry links the registrations with it, so no link-anchor tricks are
// needed to keep a static library from dropping them.
//
// Built-in names: FedHiSyn, FedAvg, TFedAvg, TAFedAvg, FedProx, FedAT,
// SCAFFOLD, FedAsync (case-sensitive, matching the paper's Table 1
// columns).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"

namespace fedhisyn::core {

using AlgorithmFactory =
    std::function<std::unique_ptr<FlAlgorithm>(const FlContext&)>;

/// Register `factory` under `name` (case-sensitive) with a one-line human
/// description (shown by --list-methods).  Check-fails on a duplicate name —
/// two registrations for one method is always a bug.  Returns true so the
/// registration macro can initialise a static.
bool register_algorithm(std::string name, std::string description,
                        AlgorithmFactory factory);

/// All registered names, sorted lexicographically (feeds --list-methods).
std::vector<std::string> registered_methods();

/// The one-line description `name` was registered with; check-fails on an
/// unknown name.
std::string method_description(const std::string& name);

/// Instantiate the registered algorithm `name`; throws CheckError naming the
/// known methods when the name is unknown.
std::unique_ptr<FlAlgorithm> make_algorithm(const std::string& name,
                                            const FlContext& ctx);

/// The paper's Table 1 column order (a subset of registered_methods()).
const std::vector<std::string>& table1_methods();

}  // namespace fedhisyn::core

#define FEDHISYN_REGISTRY_CONCAT_INNER(a, b) a##b
#define FEDHISYN_REGISTRY_CONCAT(a, b) FEDHISYN_REGISTRY_CONCAT_INNER(a, b)

/// Namespace-scope registration: FEDHISYN_REGISTER_ALGORITHM("FedHiSyn",
/// "ring circulation inside speed classes + server aggregation",
/// [](const FlContext& ctx) { return std::make_unique<FedHiSynAlgo>(ctx); });
#define FEDHISYN_REGISTER_ALGORITHM(name, ...)                              \
  static const bool FEDHISYN_REGISTRY_CONCAT(fedhisyn_algorithm_registrar_, \
                                             __COUNTER__) =                 \
      ::fedhisyn::core::register_algorithm(name, __VA_ARGS__)
