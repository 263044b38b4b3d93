#include "tensor/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace fedhisyn {

namespace {
std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    FEDHISYN_CHECK_MSG(d >= 0, "negative dimension " << d);
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape)) {
  FEDHISYN_CHECK(shape_.size() <= 4);
  numel_ = shape_numel(shape_);
  data_.assign(static_cast<std::size_t>(numel_), 0.0f);
}

Tensor::Tensor(std::initializer_list<std::int64_t> shape)
    : Tensor(std::vector<std::int64_t>(shape)) {}

std::int64_t Tensor::dim(std::size_t axis) const {
  FEDHISYN_CHECK(axis < shape_.size());
  return shape_[axis];
}

std::span<float> Tensor::row(std::int64_t r) {
  FEDHISYN_CHECK(rank() >= 2);
  const std::int64_t stride = numel_ / shape_[0];
  FEDHISYN_CHECK(r >= 0 && r < shape_[0]);
  return {data_.data() + r * stride, static_cast<std::size_t>(stride)};
}

std::span<const float> Tensor::row(std::int64_t r) const {
  FEDHISYN_CHECK(rank() >= 2);
  const std::int64_t stride = numel_ / shape_[0];
  FEDHISYN_CHECK(r >= 0 && r < shape_[0]);
  return {data_.data() + r * stride, static_cast<std::size_t>(stride)};
}

void Tensor::reshape(std::vector<std::int64_t> shape) {
  FEDHISYN_CHECK_MSG(shape_numel(shape) == numel_,
                     "reshape from " << shape_str() << " changes element count");
  shape_ = std::move(shape);
}

void Tensor::fill(float value) {
  for (auto& x : data_) x = value;
}

void Tensor::resize(std::span<const std::int64_t> shape) {
  if (std::equal(shape.begin(), shape.end(), shape_.begin(), shape_.end())) return;
  FEDHISYN_CHECK(shape.size() <= 4);
  shape_.assign(shape.begin(), shape.end());
  numel_ = shape_numel(shape_);
  data_.resize(static_cast<std::size_t>(numel_));
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ',';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace fedhisyn
