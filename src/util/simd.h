/**
 * @file
 * Portable SIMD elementwise kernels shared by both execution engines
 * (through sim/phase_semantics.h).
 *
 * Each helper is a `#pragma omp simd` loop the compiler may
 * vectorize. Only loops whose lanes are fully independent carry the
 * pragma — no reductions, no reassociation — so vectorization cannot
 * change a single FP64 result. Order-sensitive folds (dot partials,
 * reduce-tree sums) must NOT go through these helpers; they stay
 * serial to preserve the canonical fold order (docs/PERFORMANCE.md,
 * "Fold-order contract").
 *
 * The pragmas need no OpenMP runtime: the build adds -fopenmp-simd
 * when available, and compilers without it ignore the pragmas.
 */
#ifndef AZUL_UTIL_SIMD_H_
#define AZUL_UTIL_SIMD_H_

#include <cstddef>

namespace azul::simd {

/** dst[i] += s * a[i] */
inline void
Axpy(double* dst, const double* a, double s, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] += s * a[i];
    }
}

/** dst[i] = a[i] + s * dst[i] */
inline void
Xpby(double* dst, const double* a, double s, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] + s * dst[i];
    }
}

/** dst[i] = a[i] - b[i] */
inline void
Sub(double* dst, const double* a, const double* b, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] - b[i];
    }
}

/** dst[i] = a[i] */
inline void
Copy(double* dst, const double* a, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i];
    }
}

/** dst[i] = s * a[i] (Arnoldi basis normalization) */
inline void
Scale(double* dst, const double* a, double s, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = s * a[i];
    }
}

/** dst[i] = a[i] * b[i] (diagonal preconditioner scale) */
inline void
Mul(double* dst, const double* a, const double* b, std::size_t n)
{
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] * b[i];
    }
}

} // namespace azul::simd

#endif // AZUL_UTIL_SIMD_H_
