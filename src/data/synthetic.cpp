#include "data/synthetic.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::data {

SyntheticSpec mnist_like() {
  SyntheticSpec spec;
  spec.name = "mnist";
  spec.n_classes = 10;
  spec.channels = 1;
  spec.height = 1;
  spec.width = 64;
  spec.separation = 4.0;
  spec.noise = 1.0;
  spec.nuisance = 0.4;
  spec.label_noise = 0.0;
  return spec;
}

SyntheticSpec emnist_like() {
  SyntheticSpec spec;
  spec.name = "emnist";
  spec.n_classes = 26;
  spec.channels = 1;
  spec.height = 1;
  spec.width = 64;
  spec.separation = 4.6;
  spec.noise = 1.0;
  spec.nuisance = 0.5;
  spec.label_noise = 0.02;
  return spec;
}

SyntheticSpec cifar10_like() {
  SyntheticSpec spec;
  spec.name = "cifar10";
  spec.n_classes = 10;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.separation = 3.6;
  spec.noise = 1.0;
  spec.nuisance = 0.8;
  spec.label_noise = 0.04;
  return spec;
}

SyntheticSpec cifar100_like() {
  SyntheticSpec spec;
  spec.name = "cifar100";
  spec.n_classes = 100;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.separation = 4.6;
  spec.noise = 1.0;
  spec.nuisance = 0.8;
  spec.label_noise = 0.06;
  return spec;
}

SyntheticSpec spec_by_name(const std::string& name) {
  if (name == "mnist") return mnist_like();
  if (name == "emnist") return emnist_like();
  if (name == "cifar10") return cifar10_like();
  if (name == "cifar100") return cifar100_like();
  FEDHISYN_CHECK_MSG(false, "unknown synthetic spec '" << name << "'");
  return {};
}

namespace {

/// Apply a fixed random orthogonal-ish mixing: y = x + strength * R x where R
/// has Gaussian entries scaled by 1/sqrt(dim).  A full QR orthogonalisation
/// is unnecessary — the goal is only to couple coordinates so no single input
/// dimension is class-revealing on its own.
class Mixer {
 public:
  /// R is drawn row by row (R[i][j], j fastest) and stored transposed, so
  /// apply() can sweep it a column at a time.
  Mixer(std::int64_t dim, Rng& rng) : dim_(dim), rt_(static_cast<std::size_t>(dim * dim)) {
    const double scale = 0.35 / std::sqrt(static_cast<double>(dim));
    for (std::int64_t i = 0; i < dim; ++i) {
      for (std::int64_t j = 0; j < dim; ++j) {
        rt_[static_cast<std::size_t>(j * dim + i)] = static_cast<float>(rng.normal(0.0, scale));
      }
    }
  }

  /// Each output keeps its own double sum x[i] + R[i][0]*x[0] + R[i][1]*x[1]
  /// + ... in ascending j, each product rounded to float before it widens,
  /// so the bytes match a row-by-row dot product; the vector plane's mix
  /// (tensor/gemm_kernel.hpp) sweeps rt_ a column at a time with blocks of
  /// outputs held in registers.
  void apply(std::span<float> x, std::span<double> acc) const {
    FEDHISYN_CHECK(static_cast<std::int64_t>(x.size()) == dim_);
    FEDHISYN_CHECK(static_cast<std::int64_t>(acc.size()) == dim_);
    gemm_runtime_config().plane.mix(rt_.data(), dim_, x.data(), acc.data());
  }

 private:
  std::int64_t dim_;
  std::vector<float> rt_;  // rt_[j * dim + i] = R[i][j]
};

}  // namespace

SyntheticSplit generate(const SyntheticSpec& spec, std::int64_t train_samples,
                        std::int64_t test_samples, Rng& rng) {
  FEDHISYN_CHECK(train_samples > 0 && test_samples > 0);
  FEDHISYN_CHECK(spec.n_classes >= 2);
  const std::int64_t dim = spec.sample_dim();
  FEDHISYN_CHECK(dim > 0);

  // Class prototypes: Gaussian directions scaled to `separation`.
  std::vector<std::vector<float>> prototypes(static_cast<std::size_t>(spec.n_classes));
  for (auto& proto : prototypes) {
    proto.resize(static_cast<std::size_t>(dim));
    double sq = 0.0;
    for (auto& value : proto) {
      value = static_cast<float>(rng.normal());
      sq += static_cast<double>(value) * value;
    }
    const double inv = spec.separation / std::max(std::sqrt(sq), 1e-9);
    for (auto& value : proto) value = static_cast<float>(value * inv);
  }

  // Shared nuisance directions (label-free variance).
  const std::int64_t n_nuisance = std::max<std::int64_t>(2, dim / 8);
  std::vector<std::vector<float>> nuisance(static_cast<std::size_t>(n_nuisance));
  for (auto& direction : nuisance) {
    direction.resize(static_cast<std::size_t>(dim));
    for (auto& value : direction) value = static_cast<float>(rng.normal(0.0, 1.0));
  }

  Mixer mixer(dim, rng);
  std::vector<double> scratch(static_cast<std::size_t>(dim));

  auto make_split = [&](std::int64_t count) {
    Dataset set;
    set.n_classes = spec.n_classes;
    if (spec.height > 1 || spec.channels > 1) {
      set.x.resize({count, spec.channels, spec.height, spec.width});
    } else {
      set.x.resize({count, dim});
    }
    set.y.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      // Balanced class draw (paper datasets are class-balanced).
      const auto label = static_cast<std::int32_t>(i % spec.n_classes);
      auto row = set.x.row(i);
      const auto& proto = prototypes[static_cast<std::size_t>(label)];
      for (std::int64_t d = 0; d < dim; ++d) {
        row[static_cast<std::size_t>(d)] =
            proto[static_cast<std::size_t>(d)] +
            static_cast<float>(rng.normal(0.0, spec.noise));
      }
      // Nuisance: a random combination of the shared directions.  The
      // coefficient is scaled by 1/sqrt(#directions) so `spec.nuisance` is
      // the TOTAL nuisance std along any fixed direction, independent of how
      // many directions the subspace has.
      const double coeff_std =
          spec.nuisance / std::sqrt(static_cast<double>(n_nuisance));
      for (const auto& direction : nuisance) {
        const float coeff = static_cast<float>(rng.normal(0.0, coeff_std));
        for (std::int64_t d = 0; d < dim; ++d) {
          row[static_cast<std::size_t>(d)] += coeff * direction[static_cast<std::size_t>(d)];
        }
      }
      mixer.apply(row, scratch);
      set.y[static_cast<std::size_t>(i)] =
          (spec.label_noise > 0.0 && rng.bernoulli(spec.label_noise))
              ? static_cast<std::int32_t>(rng.uniform_index(
                    static_cast<std::uint64_t>(spec.n_classes)))
              : label;
    }
    return set;
  };

  SyntheticSplit split;
  split.train = make_split(train_samples);
  split.test = make_split(test_samples);
  return split;
}

}  // namespace fedhisyn::data
