// Block math kernels for the RNG fast path (DESIGN.md §8).
//
// These straight-line, branch-free loops live in their own translation unit
// (simd_math.cc) compiled with -ffast-math/-fopenmp-simd so the compiler can
// auto-vectorize the transcendental calls (libmvec on glibc/x86-64) without
// relaxing floating-point semantics anywhere else. In particular rng.cc,
// whose per-call draws (normal(), gamma(), ...) must keep reproducing their
// pinned sequences bit-for-bit, is compiled with the default strict flags
// and only *calls* into these kernels from the bulk fill_* paths, which own
// their own draw sequence and are validated at the figure level
// (EXPERIMENTS.md).
//
// Every kernel is plain C++ and remains correct if the compiler declines to
// vectorize (e.g. non-x86 targets or clang without a vector libm); the fast
// path then degrades to a tight scalar loop, never to wrong results.
//
// An element's bits can depend on where it sits in the call: the vector
// body calls one libmvec variant and the loop tail a narrower one or scalar
// libm, and these differ in the last ulp. A caller that must reproduce a
// sequence keeps the call boundaries (Rng::fill_normal_head computes the
// head of a draw inside the draw's own blocks for this reason).
#pragma once

#include <cstddef>

namespace mixnet::vecmath {

/// Box-Muller on `n` uniform pairs: out_cos[i] = r*cos(theta),
/// out_sin[i] = r*sin(theta) with r = sqrt(-2 ln u1[i]), theta = 2*pi*u2[i].
/// u1 values must be in (0, 1]; u2 in [0, 1).
void box_muller_block(const double* u1, const double* u2, double* out_cos,
                      double* out_sin, std::size_t n);

/// out[i] = exp(x[i]).
void exp_block(const double* x, double* out, std::size_t n);

/// Marsaglia-Tsang acceptance pass for shape >= 1: given standard normals
/// `x` and uniforms `u` in (0, 1], computes the candidate value
/// val[i] = d*(1 + c*x[i])^3 and whether it is accepted (squeeze or full
/// log test). Rejected lanes must be re-drawn by the caller.
void gamma_candidate_block(const double* x, const double* u, double d, double c,
                           double* val, unsigned char* accept, std::size_t n);

/// out[i] = u[i]^inv_shape via exp(ln(u)*inv_shape); u in (0, 1]. The
/// Marsaglia-Tsang shape-boost step (gamma(a) = gamma(a+1) * U^(1/a)) for a
/// whole block at once.
void pow_block(const double* u, double inv_shape, double* out, std::size_t n);

/// Dense row-major matrix times `batch` vectors: y[v*rows + r] =
/// sum_c m[r*cols + c] * x[v*cols + c], i.e. Y = X M^T with X and Y
/// batch-major. Four rows of `m` are kept hot in L1 across every vector, so
/// a matrix that does not fit in L1 streams from L2 once per call instead of
/// once per vector. Each (row, vector) dot product is one vectorized
/// reduction over the columns in column order: fast-math reassociates it
/// (the result can differ from a strict left-to-right sum in the last ulps;
/// Matrix::mul_into is the strict one), but identically for every vector,
/// so the result does not depend on `batch`. `y` must not alias `m` or `x`.
void matvec_batch(const double* m, const double* x, double* y,
                  std::size_t rows, std::size_t cols, std::size_t batch);

}  // namespace mixnet::vecmath
