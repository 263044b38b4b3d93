// Row-major float32 tensor.  Deliberately minimal: shape + contiguous
// storage + bounds-checked views.  All heavy math lives in free functions
// (gemm.hpp, ops.hpp) operating on spans, so the same kernels serve both
// Tensors and the flat FL weight blobs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fedhisyn {

/// Dense row-major float tensor with up to 4 dimensions (enough for [B,C,H,W]).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::int64_t> shape);
  Tensor(std::initializer_list<std::int64_t> shape);

  /// Total element count (product of dims; 0 for the empty tensor).
  std::int64_t numel() const { return numel_; }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t axis) const;
  std::size_t rank() const { return shape_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float at(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Row view for a rank>=2 tensor: elements [r*row_stride, (r+1)*row_stride).
  std::span<float> row(std::int64_t r);
  std::span<const float> row(std::int64_t r) const;

  /// Reinterpret the shape; element count must match.
  void reshape(std::vector<std::int64_t> shape);
  /// Set every element to `value`.
  void fill(float value);
  /// Resize a reused workspace buffer with std::vector::resize semantics:
  /// the first min(old, new) elements keep their values, only elements past
  /// the old size are zeroed, and shrinking keeps the capacity, so a shrink
  /// followed by a grow back within it neither allocates nor moves data().
  /// An unchanged shape is a no-op.  Callers overwrite what they read.
  void resize(std::initializer_list<std::int64_t> shape) {
    resize(std::span<const std::int64_t>(shape.begin(), shape.size()));
  }
  void resize(std::span<const std::int64_t> shape);

  std::string shape_str() const;

 private:
  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
  std::int64_t numel_ = 0;
};

}  // namespace fedhisyn
