#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "tensor/broadcast.h"
#include "tensor/counters.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"

namespace taser::tensor {

namespace {

using detail::BroadcastPlan;
using detail::broadcast_apply;
using detail::broadcast_visit;
using detail::make_broadcast_plan;

/// Shared driver for broadcast binary ops. `fwd(a,b)` computes the value;
/// `dfa(g,a,b)` / `dfb(g,a,b)` compute the per-element contribution to
/// each input's gradient (accumulated through the broadcast plan, which
/// realises the sum-over-broadcast-dims reduction for free).
template <typename Fwd, typename Dfa, typename Dfb>
Tensor binary_op(const Tensor& a, const Tensor& b, Fwd fwd, Dfa dfa, Dfb dfb) {
  BroadcastPlan plan = make_broadcast_plan(a.shape(), b.shape());
  OpCounters::add_flops(static_cast<std::uint64_t>(plan.out_numel));
  Tensor out = make_result(plan.out_shape, {a, b});
  broadcast_apply(plan, a.data(), b.data(), out.data(), fwd);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl(), ib = b.impl();
    out.node().backward_fn = [plan, ia, ib, dfa, dfb](TensorImpl& self) {
      const bool need_a = ia->requires_grad;
      const bool need_b = ib->requires_grad;
      if (need_a) ia->ensure_grad();
      if (need_b) ib->ensure_grad();
      const float* g = self.grad.data();
      const float* av = ia->data.data();
      const float* bv = ib->data.data();
      float* ga = need_a ? ia->grad.data() : nullptr;
      float* gb = need_b ? ib->grad.data() : nullptr;
      broadcast_visit(plan, [&](std::int64_t i, std::int64_t oa, std::int64_t ob) {
        if (need_a) ga[oa] += dfa(g[i], av[oa], bv[ob]);
        if (need_b) gb[ob] += dfb(g[i], av[oa], bv[ob]);
      });
    };
  }
  return out;
}

template <typename Fwd, typename Dfdy>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfdy dfdy) {
  OpCounters::add_flops(static_cast<std::uint64_t>(a.numel()));
  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) ov[i] = fwd(av[i]);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, dfdy](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* x = ia->data.data();
      const float* y = self.data.data();
      float* gi = ia->grad.data();
      const std::int64_t n2 = self.numel();
      for (std::int64_t i = 0; i < n2; ++i) gi[i] += g[i] * dfdy(x[i], y[i]);
    };
  }
  return out;
}

}  // namespace

// ---- tanh-GELU: one definition for every caller ----------------------------
//
// gelu(x) = 0.5·x·(1 + tanh(u)) = x·σ(2u),  u = √(2/π)·(x + 0.044715·x³).
// The fused GEMM epilogue, the fused-linear backward and the standalone
// gelu op all call gelu_forward / gelu_backward below, which run the single
// `GeluLanes` template either on 8-lane AVX2 vectors or on scalars. The
// bits are the same on every path because
//  - every step is an IEEE operation that rounds the same in scalar and
//    vector form (mul, div, min/max, compare, and each multiply-add written
//    as an explicit fma);
//  - implicit contraction is switched off on every entry point, so the
//    compiler cannot fuse a mul and an add in one path and not the other;
//  - the AVX2 path is picked at run time (__builtin_cpu_supports), so it
//    does not depend on the ISA any translation unit is built for.
// Accuracy against a double-precision reference on [-12, 12]: gelu
// |err| ≤ 1.4e-7·|x| and ≤ 2.05 ULP for x > 0; gelu' |err| ≤
// 1.7e-7·max(1, |x|) and ≤ 2.5 ULP for x > 0 (test_tensor_ops pins 2.5e-7
// and 3 ULP).

namespace {

#if defined(__GNUC__) && !defined(__clang__)
#define TASER_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
// Clang contracts only within one source expression, and no expression
// below contains a bare a*b+c.
#define TASER_NO_FP_CONTRACT
#endif

constexpr float kGeluA1 = 2 * 0.7978845608028654f;  // 2·√(2/π)
constexpr float kGeluA3 = kGeluA1 * 0.044715f;
/// w = -2u at or above which float tanh(u) is exactly -1: gelu and gelu'
/// are exactly 0 there (gelu(x) = -0 for every finite x ≤ -10).
constexpr float kGeluSatNeg = 18.f;
/// w = -2u at or below which gelu' is exactly 1. Below w = -18, σ(2u)
/// already rounds to 1, so gelu(x) = x; the derivative keeps its tail of
/// x·v'·σ(1-σ) up to here, where it drops below half an ULP of 1.
constexpr float kGeluSatPos = 24.f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;  // ln 2 = kLn2Hi + kLn2Lo (Cody-Waite)
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kRoundMagic = 12582912.f;  // 1.5·2^23: fma(a, b, it) - it rounds a·b to an integer

struct ScalarLanes {
  using V = float;
  static V set(float a) { return a; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V mul(V a, V b) { return a * b; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V div(V a, V b) { return a / b; }
  // Same operand order and NaN behaviour as minps/maxps.
  static V min(V a, V b) { return a < b ? a : b; }
  static V max(V a, V b) { return a > b ? a : b; }
  static V if_ge(V a, float lim, V then, V other) { return a >= lim ? then : other; }
  static V if_le(V a, float lim, V then, V other) { return a <= lim ? then : other; }
  /// 2^n for an integral n in the normal exponent range.
  static V pow2i(V n) {
    return std::bit_cast<float>((static_cast<std::int32_t>(n) + 127) << 23);
  }
};

#if defined(__x86_64__) && defined(__GNUC__)
#define TASER_AVX2 __attribute__((target("avx2,fma")))
#define TASER_HAS_AVX2_PATH 1

struct Avx2Lanes {
  using V = __m256;
  TASER_AVX2 static V set(float a) { return _mm256_set1_ps(a); }
  TASER_AVX2 static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  TASER_AVX2 static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  TASER_AVX2 static V add(V a, V b) { return _mm256_add_ps(a, b); }
  TASER_AVX2 static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  TASER_AVX2 static V div(V a, V b) { return _mm256_div_ps(a, b); }
  TASER_AVX2 static V min(V a, V b) { return _mm256_min_ps(a, b); }
  TASER_AVX2 static V max(V a, V b) { return _mm256_max_ps(a, b); }
  TASER_AVX2 static V if_ge(V a, float lim, V then, V other) {
    return _mm256_blendv_ps(other, then, _mm256_cmp_ps(a, set(lim), _CMP_GE_OQ));
  }
  TASER_AVX2 static V if_le(V a, float lim, V then, V other) {
    return _mm256_blendv_ps(other, then, _mm256_cmp_ps(a, set(lim), _CMP_LE_OQ));
  }
  TASER_AVX2 static V pow2i(V n) {
    const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
};
#else
#define TASER_HAS_AVX2_PATH 0
#endif

// GeluLanes<Avx2Lanes> hands __m256 values between helpers that flatten
// inlines into the AVX2 entry points, so no call with that ABI is emitted.
// GCC reports -Wpsabi at the end of the file, so it stays off from here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

/// The one tanh-GELU definition, generic over scalar or vector lanes O.
template <class O>
struct GeluLanes {
  using V = typename O::V;

  /// w = -2u, e = exp(w) and s = σ(2u) = 1/(1+e), with w clamped to
  /// [-kGeluSatPos, kGeluSatNeg] inside the exp (callers saturate beyond).
  static void sigmoid(V x, V& w, V& s, V& e) {
    w = O::mul(x, O::fma(O::mul(x, x), O::set(-kGeluA3), O::set(-kGeluA1)));
    const V z = O::min(O::max(w, O::set(-kGeluSatPos)), O::set(kGeluSatNeg));
    // exp(z) = 2^n·e^r, |r| ≤ ln2/2, Cephes expf polynomial in Horner form.
    const V n = O::sub(O::fma(z, O::set(kLog2e), O::set(kRoundMagic)), O::set(kRoundMagic));
    V r = O::fma(n, O::set(-kLn2Hi), z);
    r = O::fma(n, O::set(-kLn2Lo), r);
    V p = O::set(1.9875691500e-4f);
    p = O::fma(p, r, O::set(1.3981999507e-3f));
    p = O::fma(p, r, O::set(8.3334519073e-3f));
    p = O::fma(p, r, O::set(4.1665795894e-2f));
    p = O::fma(p, r, O::set(1.6666665459e-1f));
    p = O::fma(p, r, O::set(5.0000001201e-1f));
    p = O::fma(p, r, O::set(1.f));
    p = O::fma(p, r, O::set(1.f));
    const V scale = O::pow2i(n);
    e = O::mul(p, scale);
    s = O::div(O::set(1.f), O::fma(p, scale, O::set(1.f)));
  }

  static V value(V x) {
    V w, s, e;
    sigmoid(x, w, s, e);
    return O::mul(x, O::if_ge(w, kGeluSatNeg, O::set(0.f), s));
  }

  /// gelu'(x) = s + x·v'·s·(1-s), v' = d(2u)/dx, 1-s = e·s.
  static V grad(V x) {
    V w, s, e;
    sigmoid(x, w, s, e);
    const V dv = O::fma(O::mul(x, x), O::set(3 * kGeluA3), O::set(kGeluA1));
    const V tail = O::mul(O::mul(O::mul(x, dv), e), s);
    V d = O::fma(tail, s, s);
    d = O::if_ge(w, kGeluSatNeg, O::set(0.f), O::if_le(w, -kGeluSatPos, O::set(1.f), d));
    // x - x is NaN for x = ±inf (the 0·∞ of the limit) and +0 otherwise.
    return O::add(d, O::sub(x, x));
  }
};

TASER_NO_FP_CONTRACT void gelu_forward_scalar(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = GeluLanes<ScalarLanes>::value(x[i]);
}

TASER_NO_FP_CONTRACT void gelu_backward_scalar(const float* g, const float* u, float* gu,
                                               std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) gu[i] = g[i] * GeluLanes<ScalarLanes>::grad(u[i]);
}

#if TASER_HAS_AVX2_PATH
// flatten inlines the lane helpers (and the scalar tail) into this AVX2
// body; 256-bit rather than 512-bit vectors keep the surrounding AVX2 GEMM
// out of the AVX-512 frequency licence.
TASER_AVX2 __attribute__((flatten)) TASER_NO_FP_CONTRACT void gelu_forward_avx2(
    const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, GeluLanes<Avx2Lanes>::value(_mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] = GeluLanes<ScalarLanes>::value(x[i]);
}

TASER_AVX2 __attribute__((flatten)) TASER_NO_FP_CONTRACT void gelu_backward_avx2(
    const float* g, const float* u, float* gu, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(gu + i, _mm256_mul_ps(_mm256_loadu_ps(g + i),
                                           GeluLanes<Avx2Lanes>::grad(_mm256_loadu_ps(u + i))));
  for (; i < n; ++i) gu[i] = g[i] * GeluLanes<ScalarLanes>::grad(u[i]);
}
#endif

struct GeluKernels {
  void (*forward)(const float*, float*, std::int64_t);
  void (*backward)(const float*, const float*, float*, std::int64_t);
};

const GeluKernels& gelu_kernels() {
  static const GeluKernels kernels = [] {
#if TASER_HAS_AVX2_PATH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return GeluKernels{gelu_forward_avx2, gelu_backward_avx2};
#endif
    return GeluKernels{gelu_forward_scalar, gelu_backward_scalar};
  }();
  return kernels;
}

}  // namespace

namespace gemm {

TASER_NO_FP_CONTRACT float gelu_scalar(float x) { return GeluLanes<ScalarLanes>::value(x); }

TASER_NO_FP_CONTRACT float gelu_grad_scalar(float x) {
  return GeluLanes<ScalarLanes>::grad(x);
}

void gelu_forward(const float* x, float* y, std::int64_t n) {
  gelu_kernels().forward(x, y, n);
}

void gelu_backward(const float* g, const float* u, float* gu, std::int64_t n) {
  gelu_kernels().backward(g, u, gu, n);
}

}  // namespace gemm

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x + y; },
      [](float g, float, float) { return g; }, [](float g, float, float) { return g; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x - y; },
      [](float g, float, float) { return g; }, [](float g, float, float) { return -g; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x * y; },
      [](float g, float, float y) { return g * y; },
      [](float g, float x, float) { return g * x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x / y; },
      [](float g, float, float y) { return g / y; },
      [](float g, float x, float y) { return -g * x / (y * y); });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.f); }

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0 ? x : 0.f; },
      [](float x, float) { return x > 0 ? 1.f : 0.f; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary_op(
      a, [negative_slope](float x) { return x > 0 ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0 ? 1.f : negative_slope; });
}

Tensor gelu(const Tensor& a) {
  // The same gemm::gelu_forward / gelu_backward that linear_gelu's fused
  // epilogue and backward run, so the two are bit-identical.
  OpCounters::add_flops(static_cast<std::uint64_t>(a.numel()));
  Tensor out = make_result(a.shape(), {a});
  gemm::gelu_forward(a.data(), out.data(), a.numel());

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* x = ia->data.data();
      float* gi = ia->grad.data();
      const std::int64_t n = self.numel();
      constexpr std::int64_t kChunk = 256;
      float gu[kChunk];
      for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
        const std::int64_t len = std::min(kChunk, n - i0);
        gemm::gelu_backward(g + i0, x + i0, gu, len);
        for (std::int64_t j = 0; j < len; ++j) gi[i0 + j] += gu[j];
      }
    };
  }
  return out;
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a,
      [](float x) {
        return x >= 0 ? 1.f / (1.f + std::exp(-x))
                      : std::exp(x) / (1.f + std::exp(x));
      },
      [](float, float y) { return y * (1.f - y); });
}

Tensor tanh_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.f - y * y; });
}

Tensor exp_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Tensor log_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x < 1e-12f ? 1e-12f : x); },
      [](float x, float) { return 1.f / (x < 1e-12f ? 1e-12f : x); });
}

Tensor cos_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); });
}

Tensor sin_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sin(x); },
      [](float x, float) { return std::cos(x); });
}

Tensor sqrt_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / (y > 1e-12f ? y : 1e-12f); });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.f * x; });
}

Tensor dropout(const Tensor& a, float p, bool training, util::Rng& rng) {
  TASER_CHECK_MSG(p >= 0.f && p < 1.f, "dropout p=" << p);
  if (!training || p == 0.f) return a;
  const float scale = 1.f / (1.f - p);
  auto mask = std::make_shared<std::vector<float>>(static_cast<std::size_t>(a.numel()));
  for (auto& m : *mask) m = rng.next_float() < p ? 0.f : scale;

  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) ov[i] = av[i] * (*mask)[static_cast<std::size_t>(i)];

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, mask](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      const std::int64_t n2 = self.numel();
      for (std::int64_t i = 0; i < n2; ++i)
        gi[i] += g[i] * (*mask)[static_cast<std::size_t>(i)];
    };
  }
  return out;
}

}  // namespace taser::tensor
