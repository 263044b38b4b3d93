#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fedhisyn {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start in the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FEDHISYN_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  FEDHISYN_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 must be > 0.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::gamma(double shape) {
  FEDHISYN_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia–Tsang section 6).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  FEDHISYN_CHECK(k >= 1);
  FEDHISYN_CHECK(alpha > 0.0);
  std::vector<double> out(k);
  double total = 0.0;
  for (auto& value : out) {
    value = gamma(alpha);
    total += value;
  }
  if (total <= 0.0) {
    // All-zero draw is astronomically unlikely but must not divide by zero.
    for (auto& value : out) value = 1.0 / static_cast<double>(k);
    return out;
  }
  for (auto& value : out) value /= total;
  return out;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace fedhisyn
