#include "nn/update.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::nn {

namespace {
// Optimizer steps are elementwise — every index is independent — so chunked
// pool dispatch is bit-identical to serial for any thread count.  Dispatch
// only pays off for paper-scale models (the per-device steps inside training
// loops run inline: they are already in a parallel region).
constexpr std::size_t kParallelElementThreshold = std::size_t{1} << 15;
constexpr std::size_t kChunkElements = std::size_t{1} << 14;

template <typename Body>
void for_each_chunk(std::size_t n, const Body& body) {
  if (n >= kParallelElementThreshold && !ParallelExecutor::in_parallel_region()) {
    const std::size_t chunks = (n + kChunkElements - 1) / kChunkElements;
    ParallelExecutor::current().parallel_for(
        chunks, [&](std::size_t chunk) {
          const std::size_t begin = chunk * kChunkElements;
          body(begin, std::min(n, begin + kChunkElements));
        });
  } else {
    body(std::size_t{0}, n);
  }
}
}  // namespace

// Each step reads the vector plane once per chunk (tensor/gemm_kernel.hpp
// VecPlane spells out its per-element arithmetic).
void sgd_step(std::span<float> weights, std::span<const float> grad, float lr) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  const auto step = gemm_runtime_config().plane.sgd;
  for_each_chunk(weights.size(), [&](std::size_t begin, std::size_t end) {
    step(weights.data() + begin, grad.data() + begin, lr, static_cast<std::int64_t>(end - begin));
  });
}

void prox_sgd_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> anchor, float lr, float mu) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == anchor.size());
  const auto step = gemm_runtime_config().plane.prox_sgd;
  for_each_chunk(weights.size(), [&](std::size_t begin, std::size_t end) {
    step(weights.data() + begin, grad.data() + begin, anchor.data() + begin, lr, mu,
         static_cast<std::int64_t>(end - begin));
  });
}

void momentum_sgd_step(std::span<float> weights, std::span<const float> grad,
                       std::span<float> velocity, float lr, float momentum) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == velocity.size());
  const auto step = gemm_runtime_config().plane.momentum_sgd;
  for_each_chunk(weights.size(), [&](std::size_t begin, std::size_t end) {
    step(weights.data() + begin, grad.data() + begin, velocity.data() + begin, lr, momentum,
         static_cast<std::int64_t>(end - begin));
  });
}

void scaffold_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> c_local, std::span<const float> c_global,
                   float lr) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == c_local.size());
  FEDHISYN_CHECK(weights.size() == c_global.size());
  const auto step = gemm_runtime_config().plane.scaffold;
  for_each_chunk(weights.size(), [&](std::size_t begin, std::size_t end) {
    step(weights.data() + begin, grad.data() + begin, c_local.data() + begin,
         c_global.data() + begin, lr, static_cast<std::int64_t>(end - begin));
  });
}

}  // namespace fedhisyn::nn
