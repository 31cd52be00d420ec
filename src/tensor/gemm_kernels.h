#pragma once

#include <cstdint>

namespace taser::tensor::gemm {

// Packed, cache-blocked GEMM backend shared by every dense op
// (matmul/bmm/linear and the fused linear epilogues).
//
// Contract (see ROADMAP "GEMM kernel contract"):
//  - One register-blocked micro-kernel shape, kMR rows by a 16- or 32-wide
//    panel, serves all transpose variants: operands are described by a
//    strided `MatView` and canonicalized into tile-major panels by the
//    packing step, so A, A^T, B, B^T and the batched permute_021 view all
//    hit the same inner loop.
//  - The summation order over k is fixed per output element (k ascending,
//    blocked by kKC) and never depends on the thread count: OpenMP only
//    partitions disjoint row panels. Results are bit-identical for any
//    OMP_NUM_THREADS — the repo's executable invariant.
//  - All-zero A chunks (kMR rows x kKC cols of the packed panel) are
//    skipped wholesale and the FLOP ledger stays dense. For finite B
//    this only elides exact-zero contributions, so values are unchanged;
//    a NaN or ±inf in B that meets a skipped chunk is dropped, where the
//    dense product would give NaN. The backend itself records no
//    OpCounters — callers account at op granularity.
//  - Kernels never open a nested OpenMP region: when invoked from inside
//    an active parallel region (e.g. bmm's batch loop) they run serially
//    on the calling thread.

/// Register tiles. The 6x16 tile is 12 YMM accumulators with FMA in the
/// x86-64-v3 build (the baseline build rounds mul and add apart). The
/// 6x32 tile is 12 ZMM accumulators, compiled only into the x86-64-v3
/// build and picked once at start-up when the CPU has AVX-512F. Panel
/// width follows the output width: n > 16 takes 32-wide panels when the
/// 6x32 tile runs, n = 9..16 keeps the 16-wide tile, n = 5..8 a 4-wide
/// one, n <= 4 no packing at all. Both tiles keep kMR (the same all-zero
/// chunks are skipped), the k order and kKC blocking, and do one fma per
/// element per k step, so they give the same bits; P vs S is always
/// judged at 16-wide padding, so the regime does not depend on the panel
/// width.
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 16;
inline constexpr std::int64_t kNRWide = 32;
/// k-dimension block: packed A chunks of kMR*kKC floats stay L1-resident.
inline constexpr std::int64_t kKC = 256;
/// Budget for packing B in one piece (regime P, epilogue-capable). Larger
/// packed-B sizes fall back to kKC-blocked streaming over k (regime S).
inline constexpr std::int64_t kPackAllBytes = std::int64_t(1) << 21;

/// A strided matrix operand: element (i, j) lives at data[i*rs + j*cs].
/// Covers row-major, transposed, and batch-sliced permute views alike.
struct MatView {
  const float* data;
  std::int64_t rs;
  std::int64_t cs;
};

inline MatView row_major(const float* d, std::int64_t ld) { return {d, ld, 1}; }
/// The transpose of a row-major [r, c] matrix with leading dim `ld` = c.
inline MatView transposed(const float* d, std::int64_t ld) { return {d, 1, ld}; }

/// Fused tail applied while the C tile is register/cache hot, after the
/// full k reduction: u = C[i,j] + acc[i,j] (+ bias[j]); optionally store
/// u into `preact` (needed by the fused backward), then write
/// C[i,j] = gelu(u) or u. With everything null/false this is the plain
/// accumulate C += acc.
struct Epilogue {
  const float* bias = nullptr;  ///< [n], broadcast over rows
  float* preact = nullptr;      ///< [m, n] row-major (per batch in batched)
  bool gelu = false;            ///< tanh-GELU on the stored output
  /// C is known to be fresh zeros (a just-allocated output): skip reading
  /// it and store acc(+bias) directly. Pure traffic optimization — the
  /// value is bit-identical to accumulating into zeros. Ignored by the
  /// streamed big-k regime, which must accumulate across k blocks.
  bool beta_zero = false;
  bool empty() const { return bias == nullptr && preact == nullptr && !gelu; }
};

/// C[m,n] (row-major, contiguous) += op(A)[m,k] · op(B)[k,n], epilogue
/// applied after the reduction. C must be initialized by the caller
/// (zeros from a fresh tensor, or running gradients to accumulate into).
void gemm_acc(MatView A, MatView B, float* C, std::int64_t m, std::int64_t k,
              std::int64_t n, const Epilogue& ep = {});

/// Batched variant with one shared B, packed once: for each batch b,
/// C + b*c_stride += op(A_b) · op(B) where A_b = A0 shifted by
/// b*a_stride. Used by the token-mixing path, which feeds the
/// permute_021 view of [B, tokens, channels] without materializing it.
/// ep.preact, when set, is per-batch at preact + b*m*n.
void gemm_batched_acc(MatView A0, std::int64_t a_stride, std::int64_t batches,
                      MatView B, float* C, std::int64_t c_stride, std::int64_t m,
                      std::int64_t k, std::int64_t n, const Epilogue& ep = {});

/// Which register tile this process runs: "avx512" (6x32 and 6x16),
/// "avx2" (6x16 with FMA) or "baseline" (6x16, separate mul and add).
const char* kernel_isa();

namespace detail {
/// The packed path at one panel width (4, 16 or kNRWide), as
/// gemm_batched_acc; gemm_acc and gemm_batched_acc call it with the width
/// the shape picks. Exposed so tests can compare widths bitwise; width
/// kNRWide throws unless kernel_isa() is "avx512".
void gemm_acc_panels(int width, MatView A0, std::int64_t a_stride, std::int64_t batches,
                     MatView B, float* C, std::int64_t c_stride, std::int64_t m,
                     std::int64_t k, std::int64_t n, const Epilogue& ep);
}  // namespace detail

/// tanh-GELU, gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), and
/// its derivative. One definition (ops_elementwise.cpp) serves the fused
/// epilogue, the fused-linear backward and tensor::gelu. It writes every
/// multiply-add as an explicit fma and forbids implicit contraction, and
/// the array forms pick their AVX2 or scalar body at run time, so every
/// path in every build gives the same bits: linear_gelu stays
/// bit-identical to gelu(linear(...)), forward and backward.
float gelu_scalar(float x);
/// d gelu(x) / dx.
float gelu_grad_scalar(float x);
/// y[i] = gelu(x[i]) for i < n; y may alias x.
void gelu_forward(const float* x, float* y, std::int64_t n);
/// gu[i] = g[i] · gelu'(u[i]) for i < n.
void gelu_backward(const float* g, const float* u, float* gu, std::int64_t n);

}  // namespace taser::tensor::gemm
