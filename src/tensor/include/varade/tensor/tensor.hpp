// Dense row-major float tensor used by every numerical component.
//
// Design notes
//  - Value semantics: a Tensor owns its storage (std::vector<float>); copies
//    are deep. This keeps ownership trivial per the Core Guidelines (R.11) and
//    is cheap enough at the model sizes this library targets (edge-scale).
//  - Rank is dynamic (0..4 used in practice). Shapes are std::vector<long>.
//  - All shape mismatches throw varade::Error rather than asserting, so tests
//    can exercise failure paths safely.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "varade/error.hpp"
#include "varade/tensor/rng.hpp"

namespace varade {

using Index = long;
using Shape = std::vector<Index>;

/// Number of elements a shape describes (product of dims; 1 for rank 0).
Index shape_numel(const Shape& shape);

/// Human-readable form, e.g. "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty rank-1 tensor of size 0.
  Tensor() : shape_{0} {}

  /// Tensor of `shape` filled with `fill`.
  explicit Tensor(Shape shape, float fill = 0.0F);

  /// Tensor adopting existing data; data.size() must equal numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Rank-1 tensor from a braced list: Tensor::vector({1.f, 2.f}).
  static Tensor vector(std::initializer_list<float> values);

  /// Rank-2 tensor from nested braces (rows must be equal length).
  static Tensor matrix(std::initializer_list<std::initializer_list<float>> rows);

  /// Gaussian-initialised tensor.
  static Tensor randn(const Shape& shape, Rng& rng, float stddev = 1.0F, float mean = 0.0F);

  /// Uniform-initialised tensor in [lo, hi).
  static Tensor rand_uniform(const Shape& shape, Rng& rng, float lo, float hi);

  // --- shape & storage -----------------------------------------------------
  const Shape& shape() const { return shape_; }
  Index rank() const { return static_cast<Index>(shape_.size()); }
  Index numel() const { return static_cast<Index>(data_.size()); }
  Index dim(Index axis) const;
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  // --- element access (bounds-checked in debug-friendly form) --------------
  float& at(Index i);
  float at(Index i) const;
  float& at(Index i, Index j);
  float at(Index i, Index j) const;
  float& at(Index i, Index j, Index k);
  float at(Index i, Index j, Index k) const;
  float& at(Index i, Index j, Index k, Index l);
  float at(Index i, Index j, Index k, Index l) const;

  /// Flat unchecked access for hot loops.
  float& operator[](Index i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](Index i) const { return data_[static_cast<std::size_t>(i)]; }

  // --- reshaping ------------------------------------------------------------
  /// Same data, new shape (numel must match).
  Tensor reshaped(Shape new_shape) const;
  /// Resizes axis 0 in place to `rows`, keeping the other dims (rank >= 1).
  /// Storage capacity is retained, so a scratch tensor reused at varying row
  /// counts allocates only when it grows past its largest size so far.
  void resize_rows(Index rows);
  /// 2-D transpose.
  Tensor transposed() const;
  /// Row `i` of a rank-2 tensor as a rank-1 tensor (copy).
  Tensor row(Index i) const;
  /// Slice along axis 0: elements [begin, end).
  Tensor slice0(Index begin, Index end) const;

  // --- elementwise ops (throw on shape mismatch) ----------------------------
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(const Tensor& rhs);
  Tensor& operator/=(const Tensor& rhs);
  Tensor& operator+=(float s);
  Tensor& operator-=(float s);
  Tensor& operator*=(float s);
  Tensor& operator/=(float s);

  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator/(Tensor lhs, const Tensor& rhs) { return lhs /= rhs; }
  friend Tensor operator+(Tensor lhs, float s) { return lhs += s; }
  friend Tensor operator-(Tensor lhs, float s) { return lhs -= s; }
  friend Tensor operator*(Tensor lhs, float s) { return lhs *= s; }
  friend Tensor operator/(Tensor lhs, float s) { return lhs /= s; }
  friend Tensor operator*(float s, Tensor rhs) { return rhs *= s; }

  /// Applies `fn` to every element, returning a new tensor.
  Tensor map(const std::function<float(float)>& fn) const;
  /// In-place variant.
  void map_inplace(const std::function<float(float)>& fn);

  // --- reductions ------------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// L2 norm of all elements.
  float norm() const;
  /// True if any element is NaN or +-inf.
  bool has_non_finite() const;

  /// Fill all elements with `value`.
  void fill(float value);
  /// Set all elements to zero.
  void zero() { fill(0.0F); }

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

 private:
  Index flat_index(Index i, Index j) const;
  Index flat_index(Index i, Index j, Index k) const;
  Index flat_index(Index i, Index j, Index k, Index l) const;

  Shape shape_;
  std::vector<float> data_;
};

// --- free functions ----------------------------------------------------------

/// Matrix product of rank-2 tensors: [m,k] x [k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// y += a * x (shapes must match).
void axpy(float a, const Tensor& x, Tensor& y);

/// Dot product of two tensors viewed flat.
float dot(const Tensor& a, const Tensor& b);

/// Elementwise helpers.
Tensor exp(const Tensor& t);
Tensor log(const Tensor& t);
Tensor sqrt(const Tensor& t);
Tensor abs(const Tensor& t);
Tensor clamp(const Tensor& t, float lo, float hi);

/// Max |a-b| over all elements (shapes must match).
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True when all elements differ by at most `tol`.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5F);

}  // namespace varade
