#include "data/dataset.hpp"

#include <cstring>

#include "common/check.hpp"

namespace fedhisyn::data {

std::vector<std::int64_t> Dataset::label_histogram() const {
  std::vector<std::int64_t> hist(static_cast<std::size_t>(n_classes), 0);
  for (const auto label : y) {
    FEDHISYN_CHECK(label >= 0 && label < n_classes);
    ++hist[static_cast<std::size_t>(label)];
  }
  return hist;
}

Shard::Shard(const Dataset* dataset, std::vector<std::int64_t> indices)
    : dataset_(dataset), indices_(std::move(indices)) {
  FEDHISYN_CHECK(dataset_ != nullptr);
  for (const auto idx : indices_) {
    FEDHISYN_CHECK(idx >= 0 && idx < dataset_->size());
  }
}

const Dataset& Shard::dataset() const {
  FEDHISYN_CHECK(dataset_ != nullptr);
  return *dataset_;
}

std::vector<std::int64_t> Shard::make_order() const {
  std::vector<std::int64_t> order(indices_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::int64_t>(i);
  return order;
}

void Shard::gather(std::span<const std::int64_t> order, std::int64_t start,
                   std::int64_t count, Tensor& batch_x,
                   std::vector<std::int32_t>& batch_y) const {
  FEDHISYN_CHECK(dataset_ != nullptr);
  FEDHISYN_CHECK(start >= 0 && count > 0);
  FEDHISYN_CHECK(start + count <= static_cast<std::int64_t>(order.size()));
  const std::int64_t dim = dataset_->sample_dim();
  batch_x.resize({count, dim});
  batch_y.resize(static_cast<std::size_t>(count));
  for (std::int64_t r = 0; r < count; ++r) {
    const std::int64_t local = order[static_cast<std::size_t>(start + r)];
    FEDHISYN_CHECK(local >= 0 && local < size());
    const std::int64_t global = indices_[static_cast<std::size_t>(local)];
    // One row-sized memcpy: the row index was just checked, and glibc picks
    // the copy by ISA.
    std::memcpy(batch_x.data() + r * dim, dataset_->x.data() + global * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
    batch_y[static_cast<std::size_t>(r)] = dataset_->y[static_cast<std::size_t>(global)];
  }
}

std::vector<std::int64_t> Shard::label_histogram() const {
  FEDHISYN_CHECK(dataset_ != nullptr);
  std::vector<std::int64_t> hist(static_cast<std::size_t>(dataset_->n_classes), 0);
  for (const auto idx : indices_) {
    ++hist[static_cast<std::size_t>(dataset_->y[static_cast<std::size_t>(idx)])];
  }
  return hist;
}

}  // namespace fedhisyn::data
