// Dense row-major matrix and vector types sized for this library's needs:
// the |R|x|R| Newton-Raphson systems of the strength learner, and the
// n x n similarity matrices of the spectral baseline (n up to a few
// thousand). Not a general-purpose BLAS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace genclus {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized (or `fill`).
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    GENCLUS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    GENCLUS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous, cols() doubles).
  double* Row(size_t r) {
    GENCLUS_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    GENCLUS_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r into a Vector.
  Vector RowVector(size_t r) const;

  /// Sets row r from v (v.size() must equal cols()).
  void SetRow(size_t r, const Vector& v);

  /// Appends `count` rows filled with `fill`; existing rows keep their
  /// values. Storage grows geometrically, so repeated appends are
  /// amortized O(count * cols()).
  void AppendRows(size_t count, double fill) {
    rows_ += count;
    data_.resize(rows_ * cols_, fill);
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix Transpose() const;

  /// Matrix product this * other.
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product this * v.
  Vector MultiplyVector(const Vector& v) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// this += alpha * other (same shape).
  void AddScaled(const Matrix& other, double alpha);

  /// Every entry multiplied by s.
  void Scale(double s);

  /// Max |a_ij - b_ij| over all entries; shapes must match.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& v);

/// a - b elementwise.
Vector Subtract(const Vector& a, const Vector& b);

/// a + b elementwise.
Vector Add(const Vector& a, const Vector& b);

/// v * s elementwise.
Vector Scaled(const Vector& v, double s);

/// Max |a_i - b_i|.
double MaxAbsDiff(const Vector& a, const Vector& b);

/// Index of the max entry per row (first wins on ties). The hard-label
/// readout shared by Model::HardLabels and the benches.
std::vector<uint32_t> RowArgMax(const Matrix& m);

}  // namespace genclus
