// Shared hyper-parameters and the experiment context handed to every FL
// algorithm.  Defaults follow the paper's §6.1 hyper-parameter setting:
// lr 0.1, local mini-batch 50, local epochs 5, K=10 clusters.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "sim/device.hpp"
#include "sim/ring.hpp"

namespace fedhisyn::core {

/// Server-side model aggregation rule.
enum class AggregationRule {
  kUniform,         // Eq. (9): 1/|S| each — FedHiSyn default
  kTimeWeighted,    // Eq. (10): weight by class-mean local-training time
  kSampleWeighted,  // Eq. (3): weight by shard size — FedAvg family
};

struct FlOptions {
  float lr = 0.1f;
  int batch_size = 50;
  /// Local epochs of one training job (paper: 5 for the fixed-epoch methods).
  int local_epochs = 5;
  /// Per-round probability that a device participates (1.0, 0.5, 0.1).
  double participation = 1.0;
  /// Number of k-means classes K (paper: 10 at 50/100%, 2 at 10%).
  std::size_t clusters = 10;
  AggregationRule aggregation = AggregationRule::kUniform;
  sim::RingOrder ring_order = sim::RingOrder::kSmallToLarge;
  /// On receiving a model, train it directly (paper §4.2) or average it with
  /// the local model first (the ablated variant from Observation 1).
  bool direct_use = true;
  /// FedProx proximal coefficient.
  float prox_mu = 0.01f;
  /// Heavy-ball momentum for local SGD (0 = plain SGD, the paper's setting;
  /// the paper cites momentum as a compatible accelerator).
  float momentum = 0.0f;
  /// TAFedAvg server mixing rate: w_G <- (1-a) w_G + a w_i.
  float async_alpha = 0.3f;
  /// Unread.  Kept only because the end-to-end benchmark harness
  /// (e2ebench/harness.cpp:138) still assigns it, and that harness changes
  /// only together with the benchmark itself; delete both then.
  bool speculate = true;
  std::uint64_t seed = 1;
};

/// Everything an algorithm needs to run: the (immutable, shared) model
/// definition, the federated data, and the device fleet.  Non-owning; the
/// caller keeps these alive for the algorithm's lifetime.
struct FlContext {
  const nn::Network* network = nullptr;
  const data::FederatedData* fed = nullptr;
  const sim::Fleet* fleet = nullptr;
  FlOptions opts;

  std::size_t device_count() const { return fed->device_count(); }
};

}  // namespace fedhisyn::core
