// Small dense row-major matrix of doubles.
//
// Traffic matrices, OCS circuit allocations and the Copilot transition matrix
// are all dense and small (tens to a few hundred rows), so a flat
// std::vector<double> with bounds-checked accessors is the right tool; no
// external linear-algebra dependency is warranted.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace mixnet {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Sum of all entries.
  double sum() const {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
  }

  /// Maximum entry (0 for an empty matrix).
  double max() const {
    double m = data_.empty() ? 0.0 : data_[0];
    for (double v : data_) m = v > m ? v : m;
    return m;
  }

  /// Row sum.
  double row_sum(std::size_t r) const {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c);
    return s;
  }

  /// Column sum.
  double col_sum(std::size_t c) const {
    double s = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) s += (*this)(r, c);
    return s;
  }

  /// Matrix-vector product (cols() must equal x.size()).
  std::vector<double> mul(const std::vector<double>& x) const {
    std::vector<double> y;
    mul_into(x, y);
    return y;
  }

  /// mul() into a caller-owned vector (no per-call allocation on hot paths).
  /// `y` must not alias `x`.
  void mul_into(const std::vector<double>& x, std::vector<double>& y) const {
    assert(x.size() == cols_);
    assert(&x != &y);
    y.assign(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) y[r] += (*this)(r, c) * x[c];
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mixnet
