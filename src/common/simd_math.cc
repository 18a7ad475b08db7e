// Vectorizable math kernels (see simd_math.h for the flag story). This file
// is compiled with -ffast-math and -fopenmp-simd (see common/CMakeLists.txt);
// keep anything that must be bit-stable OUT of this translation unit.
#include "common/simd_math.h"

#include <cmath>

namespace mixnet::vecmath {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}

void box_muller_block(const double* u1, const double* u2, double* out_cos,
                      double* out_sin, std::size_t n) {
  // Three passes instead of one: with cos and sin in the same loop GCC fuses
  // them into a scalar sincos() call, which the vectorizer cannot replace
  // with libmvec (only sin/cos/log/exp carry SIMD declarations). r is staged
  // through out_sin so each pass stays a pure map over arrays.
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    out_sin[i] = std::sqrt(-2.0 * std::log(u1[i]));
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    out_cos[i] = out_sin[i] * std::cos(kTwoPi * u2[i]);
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    out_sin[i] = out_sin[i] * std::sin(kTwoPi * u2[i]);
}

void exp_block(const double* x, double* out, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void gamma_candidate_block(const double* x, const double* u, double d, double c,
                           double* val, unsigned char* accept, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 1.0 + c * x[i];
    const double v = t * t * t;
    const double x2 = x[i] * x[i];
    // log(v) is only meaningful on positive lanes; the blend keeps the
    // argument positive everywhere so fast-math vector logs stay in range.
    const double lv = std::log(t > 0.0 ? v : 1.0);
    const double lu = std::log(u[i]);
    const bool squeeze = u[i] < 1.0 - 0.0331 * x2 * x2;
    const bool full = lu < 0.5 * x2 + d * (1.0 - v + lv);
    accept[i] = static_cast<unsigned char>(t > 0.0 && (squeeze || full));
    val[i] = d * v;
  }
}

void pow_block(const double* u, double inv_shape, double* out, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(std::log(u[i]) * inv_shape);
}

void matvec_batch(const double* m, const double* x, double* y,
                  std::size_t rows, std::size_t cols, std::size_t batch) {
  // Four rows at a time: their four independent accumulator chains share
  // one pass over x[v], and the rows stay in L1 across every vector.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + r * cols;
    const double* m1 = m0 + cols;
    const double* m2 = m1 + cols;
    const double* m3 = m2 + cols;
    for (std::size_t v = 0; v < batch; ++v) {
      const double* xv = x + v * cols;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
#pragma omp simd reduction(+ : a0, a1, a2, a3)
      for (std::size_t c = 0; c < cols; ++c) {
        a0 += m0[c] * xv[c];
        a1 += m1[c] * xv[c];
        a2 += m2[c] * xv[c];
        a3 += m3[c] * xv[c];
      }
      double* yv = y + v * rows + r;
      yv[0] = a0;
      yv[1] = a1;
      yv[2] = a2;
      yv[3] = a3;
    }
  }
  for (; r < rows; ++r) {
    const double* row = m + r * cols;
    for (std::size_t v = 0; v < batch; ++v) {
      const double* xv = x + v * cols;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (std::size_t c = 0; c < cols; ++c) acc += row[c] * xv[c];
      y[v * rows + r] = acc;
    }
  }
}

}  // namespace mixnet::vecmath
