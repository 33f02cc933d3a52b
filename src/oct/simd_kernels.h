//===- oct/simd_kernels.h - Per-ISA kernel table (runtime dispatch) -*- C++ -*-===//
///
/// \file
/// One vtable of every SIMD-sensitive kernel in the domain: the span
/// kernels of the quadratic lattice operators (join/meet/widen/narrow/
/// leq/eq, driven by oct/octagon_ops.cpp) and the min-plus family of the
/// dense closure and strengthening. Each tier — pinned scalar, AVX2,
/// AVX-512 — is a separate translation unit compiled with function
/// target attributes, so one binary carries all three and
/// `simd_dispatch.h` selects the best supported tier once at startup.
/// Call sites go through activeSpanKernels() directly.
///
/// The pinned scalar tier is also the paper's "no vectorization"
/// ablation (Section 5.2): the same algorithms and memory layout with
/// scalar kernels. Select it with simdForceTier(SimdTier::Scalar),
/// OPTOCT_SIMD=scalar, or `optoct --no-vectorization`.
///
/// Contract shared by all tiers (tests/test_vector_ops.cpp and
/// tests/test_simd_dispatch.cpp enforce it): for identical inputs,
/// every tier produces bitwise-identical outputs *and* identical
/// finite-entry counts, so the tier only ever changes speed, never an
/// analysis result. Ties resolve like MAXPD/MINPD (second operand),
/// no FMA contraction is permitted, and the threshold search of the
/// widening kernel resolves to exactly the std::lower_bound result.
/// Counting kernels return the number of finite entries written
/// (popcount on the lanewise finiteness mask), so the operators keep
/// nni exact without a second scan. Loads are unaligned throughout:
/// packed half-DBM rows start at arbitrary offsets.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_SIMD_KERNELS_H
#define OPTOCT_OCT_SIMD_KERNELS_H

#include <cstddef>

/// The scalar tier doubles as the ablation baseline, so -O3 must not
/// silently turn it back into SIMD: on GCC the kernel is compiled with
/// auto-vectorization off, on Clang the loops carry a
/// vectorize(disable) pragma. (Intrinsic bodies in the AVX tiers are
/// unaffected — they are explicit builtins, not loop transforms.)
#if defined(__clang__)
#define OPTOCT_SCALAR_KERNEL
#define OPTOCT_SCALAR_LOOP                                                     \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define OPTOCT_SCALAR_KERNEL                                                   \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define OPTOCT_SCALAR_LOOP
#else
#define OPTOCT_SCALAR_KERNEL
#define OPTOCT_SCALAR_LOOP
#endif

/// The AVX tiers exist only on x86; elsewhere the scalar table is the
/// one and only tier.
#if defined(__x86_64__) || defined(__i386__)
#define OPTOCT_SIMD_X86 1
#endif

namespace optoct {

/// Function-pointer table for one ISA tier. Pointers are filled by the
/// per-tier translation units (simd_kernels_{scalar,avx2,avx512}.cpp);
/// the active table is selected once by simd_dispatch.cpp and read via
/// relaxed atomic loads from any number of analysis threads.
struct SpanKernels {
  /// Tier name as reported in logs, bench headers, and OPTOCT_SIMD.
  const char *Name;

  // --- Lattice-operator span kernels ---

  /// Dst[j] = max(A[j], B[j]) for j in [0, Len): the join operator's span
  /// map. Two-source (not in-place) so the Dense/Dense join is one pass
  /// with no preparatory buffer copy.
  void (*MaxSpan)(double *Dst, const double *A, const double *B,
                  std::size_t Len);
  /// Dst[j] = min(A[j], B[j]) for j in [0, Len): the meet operator's span
  /// map.
  void (*MinSpan)(double *Dst, const double *A, const double *B,
                  std::size_t Len);
  /// MaxSpan returning the number of finite entries written, for the
  /// component paths that must keep nni exact.
  std::size_t (*MaxSpanCount)(double *Dst, const double *A, const double *B,
                              std::size_t Len);
  /// MinSpan returning the number of finite entries written.
  std::size_t (*MinSpanCount)(double *Dst, const double *A, const double *B,
                              std::size_t Len);
  /// Standard-narrowing span: Dst[j] = Old[j] if finite, else New[j]
  /// (refine only the unbounded entries). Returns the finite count.
  std::size_t (*NarrowSpanCount)(double *Dst, const double *OldS,
                                 const double *NewS, std::size_t Len);
  /// Widening span: a bound survives iff it did not grow (New <= Old);
  /// growing bounds jump to the smallest dominating threshold in the
  /// sorted array [Thr, Thr+ThrN) or to +inf. The threshold-set choice
  /// (binary thresholds vs the doubled unary ones) is hoisted to the call
  /// site, and the threshold scan runs only for lanes that actually grew.
  /// Returns the finite count.
  std::size_t (*WidenSpanCount)(double *Dst, const double *OldS,
                                const double *NewS, std::size_t Len,
                                const double *Thr, std::size_t ThrN);
  /// True iff A[j] <= B[j] for all j in [0, Len): the inclusion test's
  /// span predicate. Early-exits on the first vector block containing a
  /// violating lane.
  bool (*SpanLeq)(const double *A, const double *B, std::size_t Len);
  /// True iff A[j] == B[j] for all j in [0, Len): the equality test's
  /// span predicate, with the same first-violating-lane early exit.
  bool (*SpanEq)(const double *A, const double *B, std::size_t Len);

  // --- Closure/strengthening min-plus kernels ---

  /// Dst[j] = min(Dst[j], A + RowA[j], B + RowB[j]) for j in [0, Len).
  /// The remaining-entries update of the dense shortest-path closure
  /// (Algorithm 3): A and B are the scalar-replaced column operands
  /// O(i,2k) and O(i,2k+1); RowA/RowB are the buffered pivot rows.
  void (*MinPlusRow2)(double *Dst, const double *RowA, double A,
                      const double *RowB, double B, std::size_t Len);
  /// Dst[j] = min(Dst[j], A + RowA[j]) for j in [0, Len). Single-pivot
  /// variant used by the full-DBM Floyd-Warshall.
  void (*MinPlusRow1)(double *Dst, const double *RowA, double A,
                      std::size_t Len);
  /// Dst[j] = min(Dst[j], (Di + T[j]) / 2) for j in [0, Len): the
  /// strengthening update with the diagonal operands pre-gathered into
  /// the contiguous array T (Section 5.2, "vectorization for
  /// strengthening").
  void (*StrengthenRow)(double *Dst, const double *T, double Di,
                        std::size_t Len);
};

/// The pinned-scalar tier: always present, genuinely scalar (the
/// Section 5.2 ablation and the portable fallback).
extern const SpanKernels SpanKernelsScalar;

#if OPTOCT_SIMD_X86
/// 256-bit AVX2 tier: the kernels PR 4 shipped, now compiled with
/// target attributes so a portable (OPTOCT_NATIVE=OFF) build still
/// carries them.
extern const SpanKernels SpanKernelsAvx2;
/// 512-bit tier (avx512f/dq/bw/vl) with masked tails.
extern const SpanKernels SpanKernelsAvx512;
#endif

} // namespace optoct

#endif // OPTOCT_OCT_SIMD_KERNELS_H
