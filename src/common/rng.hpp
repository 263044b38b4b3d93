// Deterministic random-number generation for the whole library.
//
// Every stochastic decision in an experiment (weight init, minibatch order,
// Dirichlet partitioning, device participation, ring shuffling) flows from a
// seeded Rng so runs are bit-for-bit reproducible.  The generator is
// xoshiro256** seeded via splitmix64; distributions are implemented here
// rather than via <random> because libstdc++'s distributions are not
// guaranteed to produce identical streams across versions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace fedhisyn {

/// Deterministic PRNG (xoshiro256**) with the distribution set used by the
/// library: uniforms, Gaussians, gamma and Dirichlet variates, shuffles and
/// subset sampling.  Cheap to copy; `split()` derives independent streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal variate (Box–Muller, cached pair).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Gamma(shape, 1) via Marsaglia–Tsang; shape > 0.
  double gamma(double shape);
  /// Dirichlet(alpha,...,alpha) over k categories; k >= 1, alpha > 0.
  std::vector<double> dirichlet(double alpha, std::size_t k);
  /// Bernoulli draw with probability p.
  bool bernoulli(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i + 1));
      std::swap(items[i], items[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Derive an independent child stream (stable given call order).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedhisyn
