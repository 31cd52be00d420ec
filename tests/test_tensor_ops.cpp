// Forward-value tests for the tensor library: shapes, broadcasting rules,
// and numeric results checked against hand-computed expectations.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/counters.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tt = taser::tensor;
using tt::Tensor;

namespace {

void expect_all_close(const Tensor& t, const std::vector<float>& expect,
                      float tol = 1e-5f) {
  ASSERT_EQ(t.numel(), static_cast<std::int64_t>(expect.size()));
  const float* d = t.data();
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_NEAR(d[i], expect[i], tol) << "at index " << i;
}

TEST(TensorBasics, ConstructorsAndMetadata) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(), 2);
  EXPECT_EQ(z.size(0), 2);
  EXPECT_EQ(z.size(1), 3);
  EXPECT_EQ(z.size(-1), 3);
  expect_all_close(z, {0, 0, 0, 0, 0, 0});

  Tensor f = Tensor::full({2}, 3.5f);
  expect_all_close(f, {3.5f, 3.5f});

  Tensor s = Tensor::scalar(2.f);
  EXPECT_EQ(s.dim(), 0);
  EXPECT_FLOAT_EQ(s.item(), 2.f);
}

TEST(TensorBasics, FromVectorShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1.f, 2.f, 3.f}), std::runtime_error);
}

TEST(TensorBasics, AtIndexing) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 1.f);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 6.f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 3.f);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor a = Tensor::from_vector({2}, {1, 2});
  Tensor b = a.clone();
  b.data()[0] = 9.f;
  EXPECT_FLOAT_EQ(a.data()[0], 1.f);
}

TEST(TensorBasics, DetachSharesNoGraph) {
  Tensor a = Tensor::from_vector({2}, {1, 2}, /*requires_grad=*/true);
  Tensor b = tt::mul_scalar(a, 2.f);
  Tensor d = b.detach();
  EXPECT_FALSE(d.requires_grad());
  expect_all_close(d, {2, 4});
}

TEST(Elementwise, AddSameShape) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  expect_all_close(tt::add(a, b), {11, 22, 33, 44});
  expect_all_close(tt::sub(a, b), {-9, -18, -27, -36});
  expect_all_close(tt::mul(a, b), {10, 40, 90, 160});
  expect_all_close(tt::div(b, a), {10, 10, 10, 10});
}

TEST(Elementwise, BroadcastRowVector) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3}, {10, 20, 30});
  expect_all_close(tt::add(a, b), {11, 22, 33, 14, 25, 36});
}

TEST(Elementwise, BroadcastColumnAgainstMatrix) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({2, 1}, {10, 100});
  expect_all_close(tt::mul(a, b), {10, 20, 30, 400, 500, 600});
}

TEST(Elementwise, Broadcast3dMiddleDim) {
  // [2,2,2] * [2,1,2]
  Tensor a = Tensor::from_vector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor b = Tensor::from_vector({2, 1, 2}, {1, 10, 100, 1000});
  expect_all_close(tt::mul(a, b), {1, 20, 3, 40, 500, 6000, 700, 8000});
}

TEST(Elementwise, IncompatibleBroadcastThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 4});
  EXPECT_THROW(tt::add(a, b), std::runtime_error);
}

TEST(Elementwise, UnaryValues) {
  Tensor x = Tensor::from_vector({4}, {-2.f, -0.5f, 0.f, 1.5f});
  expect_all_close(tt::relu(x), {0, 0, 0, 1.5f});
  expect_all_close(tt::leaky_relu(x, 0.1f), {-0.2f, -0.05f, 0, 1.5f});
  expect_all_close(tt::neg(x), {2.f, 0.5f, 0.f, -1.5f});
  expect_all_close(tt::square(x), {4.f, 0.25f, 0.f, 2.25f});
  expect_all_close(tt::sigmoid(Tensor::from_vector({1}, {0.f})), {0.5f});
  expect_all_close(tt::exp_t(Tensor::from_vector({2}, {0.f, 1.f})),
                   {1.f, std::exp(1.f)}, 1e-4f);
  expect_all_close(tt::cos_t(Tensor::from_vector({2}, {0.f, 3.14159265f})),
                   {1.f, -1.f}, 1e-4f);
}

TEST(Elementwise, SigmoidExtremeLogitsStable) {
  Tensor x = Tensor::from_vector({2}, {-80.f, 80.f});
  Tensor y = tt::sigmoid(x);
  EXPECT_GE(y.data()[0], 0.f);
  EXPECT_LE(y.data()[1], 1.f);
  EXPECT_NEAR(y.data()[0], 0.f, 1e-6f);
  EXPECT_NEAR(y.data()[1], 1.f, 1e-6f);
}

TEST(MatMul, Values2d) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  expect_all_close(tt::matmul(a, b), {58, 64, 139, 154});
}

TEST(MatMul, InnerDimMismatchThrows) {
  EXPECT_THROW(tt::matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               std::runtime_error);
}

TEST(MatMul, BatchedValues) {
  Tensor a = Tensor::from_vector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2, 1}, {5, 6, 7, 8});
  expect_all_close(tt::bmm(a, b), {17, 53});
}

TEST(MatMul, LinearMatchesManual) {
  Tensor x = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::from_vector({2, 3}, {1, 0, 2, 0, 1, 1});
  Tensor b = Tensor::from_vector({3}, {0.5f, -0.5f, 0.f});
  // row0: [1*1+2*0, 1*0+2*1, 1*2+2*1] + b = [1.5, 1.5, 4]
  expect_all_close(tt::linear(x, w, b), {1.5f, 1.5f, 4.f, 3.5f, 3.5f, 10.f});
}

TEST(MatMul, LinearOn3dInput) {
  Tensor x = Tensor::ones({2, 3, 4});
  taser::util::Rng rng(1);
  Tensor w = Tensor::randn({4, 5}, rng);
  Tensor out = tt::linear(x, w, Tensor());
  EXPECT_EQ(out.shape(), (tt::Shape{2, 3, 5}));
}

TEST(Reduce, SumAndMean) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(tt::sum_all(a).item(), 21.f);
  EXPECT_FLOAT_EQ(tt::mean_all(a).item(), 3.5f);
  expect_all_close(tt::sum_dim(a, 0), {5, 7, 9});
  expect_all_close(tt::sum_dim(a, 1), {6, 15});
  expect_all_close(tt::mean_dim(a, 1), {2, 5});
  expect_all_close(tt::sum_dim(a, -1), {6, 15});
}

TEST(Reduce, SumDimKeepdim) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = tt::sum_dim(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s.shape(), (tt::Shape{2, 1}));
}

TEST(Reduce, SumMiddleDimOf3d) {
  Tensor a = Tensor::from_vector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  expect_all_close(tt::sum_dim(a, 1), {4, 6, 12, 14});
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, -1, 0, 5});
  Tensor s = tt::softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.f, 1e-5f);
  }
  EXPECT_LT(s.at({0, 0}), s.at({0, 2}));
}

TEST(Softmax, LargeLogitsStable) {
  Tensor a = Tensor::from_vector({1, 3}, {1000.f, 1000.f, 1000.f});
  Tensor s = tt::softmax_lastdim(a);
  expect_all_close(s, {1.f / 3, 1.f / 3, 1.f / 3});
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::from_vector({1, 4}, {0.1f, -2.f, 3.f, 0.f});
  Tensor ls = tt::log_softmax_lastdim(a);
  Tensor s = tt::softmax_lastdim(a);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(ls.at({0, i}), std::log(s.at({0, i})), 1e-5f);
}

TEST(LayerNorm, NormalisesRows) {
  Tensor x = Tensor::from_vector({2, 4}, {1, 2, 3, 4, -10, 0, 10, 20});
  Tensor gamma = Tensor::ones({4});
  Tensor beta = Tensor::zeros({4});
  Tensor y = tt::layer_norm_lastdim(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 4; ++c) mean += y.at({r, c});
    mean /= 4;
    for (int c = 0; c < 4; ++c) var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.f, 1e-4f);
    EXPECT_NEAR(var, 1.f, 1e-2f);
  }
}

TEST(ShapeOps, ReshapeAndWildcard) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = tt::reshape(a, {3, -1});
  EXPECT_EQ(r.shape(), (tt::Shape{3, 2}));
  expect_all_close(r, {1, 2, 3, 4, 5, 6});
  EXPECT_THROW(tt::reshape(a, {4, 2}), std::runtime_error);
}

TEST(ShapeOps, Transpose2d) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  expect_all_close(tt::transpose2d(a), {1, 4, 2, 5, 3, 6});
}

TEST(ShapeOps, Permute021) {
  Tensor a = Tensor::from_vector({2, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor p = tt::permute_021(a);
  EXPECT_EQ(p.shape(), (tt::Shape{2, 3, 2}));
  expect_all_close(p, {1, 4, 2, 5, 3, 6, 7, 10, 8, 11, 9, 12});
}

TEST(ShapeOps, ConcatLastdim) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 1}, {9, 10});
  expect_all_close(tt::concat_lastdim({a, b}), {1, 2, 9, 3, 4, 10});
}

TEST(ShapeOps, ConcatDim0) {
  Tensor a = Tensor::from_vector({1, 2}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = tt::concat_dim0({a, b});
  EXPECT_EQ(c.shape(), (tt::Shape{3, 2}));
  expect_all_close(c, {1, 2, 3, 4, 5, 6});
}

TEST(ShapeOps, SliceLastdim) {
  Tensor a = Tensor::from_vector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  expect_all_close(tt::slice_lastdim(a, 1, 2), {2, 3, 6, 7});
  EXPECT_THROW(tt::slice_lastdim(a, 3, 2), std::runtime_error);
}

TEST(ShapeOps, IndexSelect0) {
  Tensor a = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = tt::index_select0(a, {2, 0, 2});
  expect_all_close(g, {5, 6, 1, 2, 5, 6});
  EXPECT_THROW(tt::index_select0(a, {3}), std::runtime_error);
}

TEST(Loss, BceWithLogitsMatchesManual) {
  Tensor z = Tensor::from_vector({2}, {0.f, 2.f});
  Tensor y = Tensor::from_vector({2}, {1.f, 0.f});
  // loss0 = log(2); loss1 = 2 + log(1+e^-2)
  const float expect = (std::log(2.f) + 2.f + std::log1p(std::exp(-2.f))) / 2.f;
  EXPECT_NEAR(tt::bce_with_logits_mean(z, y).item(), expect, 1e-5f);
}

TEST(Loss, BceExtremeLogitsFinite) {
  Tensor z = Tensor::from_vector({2}, {-100.f, 100.f});
  Tensor y = Tensor::from_vector({2}, {0.f, 1.f});
  const float v = tt::bce_with_logits_mean(z, y).item();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 0.f, 1e-5f);
}

TEST(Dropout, EvalModeIsIdentityTrainModeScales) {
  taser::util::Rng rng(7);
  Tensor x = Tensor::ones({1000});
  Tensor eval_out = tt::dropout(x, 0.5f, /*training=*/false, rng);
  expect_all_close(eval_out, std::vector<float>(1000, 1.f));

  Tensor train_out = tt::dropout(x, 0.5f, /*training=*/true, rng);
  int zeros = 0;
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const float v = train_out.data()[i];
    EXPECT_TRUE(v == 0.f || std::abs(v - 2.f) < 1e-6f);
    zeros += v == 0.f;
    sum += v;
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

// The gemm kernels are unrolled 4-wide with the zero-skip hoisted to
// block granularity; the FLOP ledger must stay the dense 2·m·k·n count
// regardless of how much work the skip elides (the modeled GPU executes
// the dense kernel either way).
TEST(OpCounters, MatmulFlopAccountingIsDense) {
  Tensor a = Tensor::from_vector({3, 5}, std::vector<float>(15, 0.5f));
  Tensor b = Tensor::from_vector({5, 7}, std::vector<float>(35, 0.25f));
  taser::tensor::OpCounterSnapshot snap;
  Tensor c = tt::matmul(a, b);
  EXPECT_EQ(snap.flops(), static_cast<std::uint64_t>(2 * 3 * 5 * 7));

  // Sparse input: zero rows are skipped computationally but not in the
  // ledger.
  std::vector<float> az(15, 0.f);
  az[0] = 1.f;
  Tensor a2 = Tensor::from_vector({3, 5}, std::move(az));
  taser::tensor::OpCounterSnapshot snap2;
  Tensor c2 = tt::matmul(a2, b);
  EXPECT_EQ(snap2.flops(), static_cast<std::uint64_t>(2 * 3 * 5 * 7));
}

TEST(OpCounters, MatmulBackwardFlopAccountingIsDense) {
  Tensor a = Tensor::from_vector({4, 6}, std::vector<float>(24, 0.1f), true);
  Tensor b = Tensor::from_vector({6, 3}, std::vector<float>(18, 0.2f), true);
  Tensor c = tt::matmul(a, b);
  taser::tensor::OpCounterSnapshot snap;
  tt::sum_all(c).backward();
  // dA = g·Bᵀ (2·4·3·6) + dB = Aᵀ·g (2·6·4·3), plus the reduction's own
  // accounting; the gemm share must be present exactly.
  EXPECT_GE(snap.flops(), static_cast<std::uint64_t>(2 * 4 * 3 * 6 + 2 * 6 * 4 * 3));
}

// ---- packed GEMM backend ----------------------------------------------------
// The packed cache-blocked backend replaced the three ad-hoc kernels; it
// must (a) match a naive double reference on tile-unaligned shapes for
// all transpose variants (exercised through matmul's forward/backward),
// (b) be bit-identical across OpenMP thread counts, and (c) keep fused
// ops equal — in values and in the FLOP ledger — to their unfused
// decomposition.

void check_matmul_against_naive(std::int64_t m, std::int64_t k, std::int64_t n,
                                std::uint64_t seed) {
  taser::util::Rng rng(seed);
  std::vector<float> av(static_cast<std::size_t>(m * k)),
      bv(static_cast<std::size_t>(k * n));
  for (auto& v : av) v = rng.next_uniform(-1.f, 1.f);
  for (auto& v : bv) v = rng.next_uniform(-1.f, 1.f);
  // A zero stripe exercises the packed zero-chunk skip.
  if (m > 2)
    for (std::int64_t p = 0; p < k; ++p) av[static_cast<std::size_t>(2 * k + p)] = 0.f;

  Tensor a = Tensor::from_vector({m, k}, av, /*requires_grad=*/true);
  Tensor b = Tensor::from_vector({k, n}, bv, /*requires_grad=*/true);
  Tensor c = tt::matmul(a, b);
  tt::sum_all(c).backward();

  const float tol = 1e-4f * std::max<float>(1.f, static_cast<float>(k) / 64.f);
  // Forward: C = A·B (normal x normal).
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(av[static_cast<std::size_t>(i * k + p)]) *
               bv[static_cast<std::size_t>(p * n + j)];
      ASSERT_NEAR(c.at({i, j}), acc, tol) << "fwd " << m << "x" << k << "x" << n;
    }
  // dA = g·Bᵀ with g = 1 (transposed-B variant): dA[i,p] = Σ_j B[p,j].
  Tensor ga = a.grad();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) {
      double acc = 0;
      for (std::int64_t j = 0; j < n; ++j)
        acc += bv[static_cast<std::size_t>(p * n + j)];
      ASSERT_NEAR(ga.at({i, p}), acc, tol) << "dA " << m << "x" << k << "x" << n;
    }
  // dB = Aᵀ·g (transposed-A variant): dB[p,j] = Σ_i A[i,p].
  Tensor gb = b.grad();
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t i = 0; i < m; ++i)
        acc += av[static_cast<std::size_t>(i * k + p)];
      ASSERT_NEAR(gb.at({p, j}), acc, tol) << "dB " << m << "x" << k << "x" << n;
    }
}

TEST(PackedGemm, AllVariantsMatchNaiveOnUnalignedShapes) {
  // Odd shapes around the 6x16 register tile and the 256-wide k chunk;
  // the last one crosses into the streamed (big packed-B) regime.
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 17},  {5, 17, 33},
                                    {17, 33, 1}, {33, 65, 7}, {7, 300, 9},
                                    {6, 16, 16}, {4, 600, 5}};
  std::uint64_t seed = 91;
  for (const auto& s : shapes) check_matmul_against_naive(s[0], s[1], s[2], ++seed);
}

TEST(PackedGemm, ThreadCountBitIdentity) {
  // Forward values AND accumulated gradients of the new kernels must be
  // bit-identical with a 1-thread and a 4-thread OpenMP team — the
  // repo's executable determinism invariant. Shapes are sized past the
  // kernels' parallelization thresholds.
  const int saved = omp_get_max_threads();
  auto run_all = [](std::vector<float>& out) {
    taser::util::Rng rng(77);
    Tensor x = Tensor::randn({300, 33}, rng, 0.8f, true);
    Tensor w = Tensor::randn({33, 65}, rng, 0.8f, true);
    Tensor b = Tensor::randn({65}, rng, 0.8f, true);
    Tensor y = tt::linear_gelu(x, w, b);

    Tensor x3 = Tensor::randn({24, 17, 33}, rng, 0.8f, true);
    Tensor w3 = Tensor::randn({17, 9}, rng, 0.8f, true);
    Tensor b3 = Tensor::randn({9}, rng, 0.8f, true);
    Tensor y3 = tt::linear_from_021(x3, w3, b3);

    Tensor m1 = Tensor::randn({65, 130}, rng, 0.8f, true);
    Tensor m2 = Tensor::randn({130, 40}, rng, 0.8f, true);
    Tensor ym = tt::matmul(m1, m2);

    tt::add(tt::add(tt::sum_all(y), tt::sum_all(y3)), tt::sum_all(ym)).backward();
    for (const Tensor& t : {y, y3, ym, x.grad(), w.grad(), b.grad(), x3.grad(),
                            w3.grad(), b3.grad(), m1.grad(), m2.grad()}) {
      const float* d = t.data();
      out.insert(out.end(), d, d + t.numel());
    }
  };
  std::vector<float> serial, parallel;
  omp_set_num_threads(1);
  run_all(serial);
  omp_set_num_threads(4);
  run_all(parallel);
  omp_set_num_threads(saved);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "thread-count divergence at " << i;
}

/// Values of `ts` laid end to end: forward outputs and gradients alike.
std::vector<float> flatten(std::initializer_list<Tensor> ts) {
  std::vector<float> out;
  for (const Tensor& t : ts) out.insert(out.end(), t.data(), t.data() + t.numel());
  return out;
}

void expect_same_values(const std::vector<float>& fused,
                        const std::vector<float>& unfused) {
  ASSERT_EQ(fused.size(), unfused.size());
  for (std::size_t i = 0; i < fused.size(); ++i)
    ASSERT_EQ(fused[i], unfused[i]) << "at " << i;
}

// Output widths: 37 leaves a partial 16-wide panel, 5 takes the 4-wide
// narrow panels and 3 the unpacked direct path. The upstream gradient is
// random so every element of g ⊙ gelu'(u) matters.
constexpr std::int64_t kFusedWidths[] = {37, 5, 3};

TEST(PackedGemm, FusedLinearGeluMatchesUnfusedBitwise) {
  for (const std::int64_t n : kFusedWidths) {
    taser::util::Rng rng(19 + static_cast<std::uint64_t>(n));
    Tensor x = Tensor::randn({37, 23}, rng, 0.8f, true);
    Tensor w = Tensor::randn({23, n}, rng, 0.8f, true);
    Tensor b = Tensor::randn({n}, rng, 0.8f, true);
    Tensor gout = Tensor::randn({37, n}, rng, 1.f);

    SCOPED_TRACE(testing::Message() << "n=" << n);
    Tensor fused = tt::linear_gelu(x, w, b);
    tt::sum_all(tt::mul(fused, gout)).backward();
    const std::vector<float> f = flatten({fused, x.grad(), w.grad(), b.grad()});
    x.zero_grad();
    w.zero_grad();
    b.zero_grad();
    Tensor unfused = tt::gelu(tt::linear(x, w, b));
    tt::sum_all(tt::mul(unfused, gout)).backward();
    expect_same_values(f, flatten({unfused, x.grad(), w.grad(), b.grad()}));
  }
}

TEST(PackedGemm, LinearFrom021MatchesPermuteBitwise) {
  for (const std::int64_t n : kFusedWidths) {
    for (const bool with_gelu : {false, true}) {
      taser::util::Rng rng(21 + static_cast<std::uint64_t>(n));
      Tensor x = Tensor::randn({5, 13, 21}, rng, 0.8f, true);
      Tensor w = Tensor::randn({13, n}, rng, 0.8f, true);
      Tensor b = Tensor::randn({n}, rng, 0.8f, true);
      Tensor gout = Tensor::randn({5, 21, n}, rng, 1.f);

      SCOPED_TRACE(testing::Message() << "n=" << n << " gelu=" << with_gelu);
      Tensor fused = with_gelu ? tt::linear_gelu_from_021(x, w, b)
                               : tt::linear_from_021(x, w, b);
      tt::sum_all(tt::mul(fused, gout)).backward();
      const std::vector<float> f = flatten({fused, x.grad(), w.grad(), b.grad()});
      x.zero_grad();
      w.zero_grad();
      b.zero_grad();
      Tensor lin = tt::linear(tt::permute_021(x), w, b);
      Tensor unfused = with_gelu ? tt::gelu(lin) : lin;
      ASSERT_EQ(fused.shape(), unfused.shape());
      tt::sum_all(tt::mul(unfused, gout)).backward();
      // The two decompositions sum dW in different orders: the fused op
      // adds one [13,21]·[21,n] product per batch, the unfused one runs a
      // single GEMM over all 5·21 rows. So dW is compared with the fused
      // order applied to the unfused graph's own gradient at `lin`.
      const Tensor g_lin = lin.grad();
      Tensor dw;
      for (std::int64_t bi = 0; bi < 5; ++bi) {
        const float* xb = x.data() + bi * 13 * 21;
        const float* gb = g_lin.data() + bi * 21 * n;
        Tensor term = tt::matmul(Tensor::from_vector({13, 21}, {xb, xb + 13 * 21}),
                                 Tensor::from_vector({21, n}, {gb, gb + 21 * n}));
        dw = bi == 0 ? term : tt::add(dw, term);
      }
      expect_same_values(f, flatten({unfused, x.grad(), dw, b.grad()}));
    }
  }
}

// ---- panel widths ----------------------------------------------------------
// Outputs wider than 16 columns take 32-wide panels where the CPU has
// AVX-512 and 16-wide ones elsewhere. Both widths must give the same bits
// for every shape, transpose, epilogue and regime, so results do not
// depend on the host.

/// One problem for gemm_acc_panels: `batches` products sharing B.
struct PanelCase {
  std::int64_t m, k, n;
  bool a_trans = false, b_trans = false;
  unsigned epi = 0;  ///< bit 0 bias, bit 1 gelu, bit 2 preact, bit 3 beta_zero
  std::int64_t batches = 1;
  /// Zero rows 0..5 over the first k chunk (a skipped chunk, or a whole
  /// panel when k <= kKC) and, when m >= 12, rows 6..11 over all of k.
  bool zero_groups = false;
};

std::ostream& operator<<(std::ostream& os, const PanelCase& pc) {
  return os << pc.batches << " x [" << pc.m << "x" << pc.k << " · " << pc.k << "x"
            << pc.n << "] a_trans=" << pc.a_trans << " b_trans=" << pc.b_trans
            << " epi=" << pc.epi << " zero_groups=" << pc.zero_groups;
}

/// Runs `pc` at 16- and 32-wide panels on the same inputs; returns false
/// (after one gtest failure) at the first bit of C or preact that differs.
bool panel_widths_agree(const PanelCase& pc, std::uint64_t seed) {
  namespace gemm = tt::gemm;
  taser::util::Rng rng(seed);
  const auto uniform = [&](std::int64_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = rng.next_uniform(-1.f, 1.f);
    return v;
  };
  const std::int64_t a_size = pc.m * pc.k, c_size = pc.m * pc.n;
  std::vector<float> a = uniform(pc.batches * a_size), b = uniform(pc.k * pc.n),
                     bias = uniform(pc.n), c0 = uniform(pc.batches * c_size);
  if (pc.epi & 8) std::fill(c0.begin(), c0.end(), 0.f);
  if (pc.zero_groups)
    for (std::int64_t bi = 0; bi < pc.batches; ++bi)
      for (std::int64_t i = 0; i < std::min<std::int64_t>(12, pc.m); ++i)
        for (std::int64_t p = 0; p < (i < 6 ? std::min(gemm::kKC, pc.k) : pc.k); ++p)
          a[static_cast<std::size_t>(bi * a_size +
                                     (pc.a_trans ? p * pc.m + i : i * pc.k + p))] = 0.f;

  const gemm::MatView A = pc.a_trans ? gemm::transposed(a.data(), pc.m)
                                     : gemm::row_major(a.data(), pc.k);
  const gemm::MatView B = pc.b_trans ? gemm::transposed(b.data(), pc.k)
                                     : gemm::row_major(b.data(), pc.n);
  // C followed by the preact buffer, as written at panel width `width`.
  const auto run = [&](int width) {
    std::vector<float> out(c0);
    out.resize(2 * c0.size(), 0.f);
    gemm::Epilogue ep;
    ep.bias = pc.epi & 1 ? bias.data() : nullptr;
    ep.gelu = (pc.epi & 2) != 0;
    ep.preact = pc.epi & 4 ? out.data() + c0.size() : nullptr;
    ep.beta_zero = (pc.epi & 8) != 0;
    gemm::detail::gemm_acc_panels(width, A, a_size, pc.batches, B, out.data(), c_size,
                                  pc.m, pc.k, pc.n, ep);
    return out;
  };
  const std::vector<float> narrow = run(gemm::kNR), wide = run(gemm::kNRWide);
  for (std::size_t i = 0; i < narrow.size(); ++i)
    if (std::bit_cast<std::uint32_t>(narrow[i]) != std::bit_cast<std::uint32_t>(wide[i])) {
      ADD_FAILURE() << pc << ": 16-wide " << narrow[i] << " vs 32-wide " << wide[i]
                    << " at " << i;
      return false;
    }
  return true;
}

TEST(PanelWidths, Wide32MatchesNarrow16Bitwise) {
  const std::string isa = tt::gemm::kernel_isa();
  if (isa != "avx512")
    GTEST_SKIP() << "kernel_isa() is " << isa
                 << ": this host runs no 32-wide panels to compare";
  std::uint64_t seed = 500;
  // Grid shapes: rows around kMR, columns around the 16/32 panel edges, k
  // around the kKC chunk. Each shape runs all four transposes; the
  // epilogue rotates with the shape, so every (transpose, epilogue) pair
  // meets about ten shapes.
  unsigned shape = 0;
  for (const std::int64_t m : {1, 5, 6, 7, 13})
    for (const std::int64_t n : {17, 31, 33, 47, 100, 325})
      for (const std::int64_t k : {1, 255, 256, 257, 600}) {
        for (unsigned t = 0; t < 4; ++t) {
          const PanelCase pc{m, k, n, (t & 1) != 0, (t & 2) != 0, (shape + 5 * t) % 16, 1,
                             (shape / 16 + t) % 2 == 1};
          if (!panel_widths_agree(pc, ++seed)) return;
        }
        ++shape;
      }
  // Shared-B batches, including the permute_021 view (a_trans) of token
  // mixing.
  for (const auto& [m, k, n] : {std::array<std::int64_t, 3>{12, 25, 100},
                                std::array<std::int64_t, 3>{13, 300, 33}})
    for (unsigned t = 0; t < 4; ++t)
      for (unsigned epi = 0; epi < 16; ++epi)
        if (!panel_widths_agree({m, k, n, (t & 1) != 0, (t & 2) != 0, epi, 3, true}, ++seed))
          return;
  // Regime S at the trunk's dW shape, batched S (the shared-B fallback),
  // and the largest P shape at 16-wide padding: m=7, k=10922, n=48 packs
  // B in 2 MiB - 128 B at 16 wide but not at 32. With a non-zero C, P and
  // S round differently.
  for (const auto& [m, k, n, batches] : {std::array<std::int64_t, 4>{13, 7500, 1300, 1},
                                         std::array<std::int64_t, 4>{7, 10923, 48, 2},
                                         std::array<std::int64_t, 4>{7, 10922, 48, 1}})
    for (unsigned t = 0; t < 4; ++t)
      if (!panel_widths_agree(
              {m, k, n, (t & 1) != 0, (t & 2) != 0, t % 2 ? 7u : 0u, batches, t == 1},
              ++seed))
        return;
}

// ---- GELU kernel conformance ----------------------------------------------
// gemm::gelu_forward / gelu_backward run the AVX2 body (8 lanes at a time)
// plus a scalar tail on hosts with AVX2+FMA, and the scalar body elsewhere;
// gemm::gelu_scalar / gelu_grad_scalar are the scalar form called directly.

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(GeluKernel, ArrayPathsMatchScalarBitwise) {
  // [-12, 12] in steps of 2^-10: both saturation points and the whole
  // range in between.
  std::vector<float> xs;
  for (int i = -12 * 1024; i <= 12 * 1024; ++i) xs.push_back(static_cast<float>(i) / 1024.f);
  taser::util::Rng rng(5);
  std::vector<float> g(xs.size());
  for (float& v : g) v = rng.next_uniform(-2.f, 2.f);

  std::vector<float> y(xs.size()), gu(xs.size());
  tt::gemm::gelu_forward(xs.data(), y.data(), static_cast<std::int64_t>(xs.size()));
  tt::gemm::gelu_backward(g.data(), xs.data(), gu.data(),
                          static_cast<std::int64_t>(xs.size()));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(bits(y[i]), bits(tt::gemm::gelu_scalar(xs[i]))) << "gelu(" << xs[i] << ")";
    ASSERT_EQ(bits(gu[i]), bits(g[i] * tt::gemm::gelu_grad_scalar(xs[i])))
        << "gelu'(" << xs[i] << ")";
  }

  // Every length 1..33 (vector body + tail splits) from unaligned starts.
  for (std::int64_t len = 1; len <= 33; ++len) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{12289}}) {
      std::vector<float> out(static_cast<std::size_t>(len) + 1, -7.f);
      tt::gemm::gelu_forward(xs.data() + off, out.data() + 1, len);
      for (std::int64_t i = 0; i < len; ++i)
        ASSERT_EQ(bits(out[static_cast<std::size_t>(i) + 1]),
                  bits(tt::gemm::gelu_scalar(xs[off + static_cast<std::size_t>(i)])))
            << "len " << len << " offset " << off << " i " << i;
      ASSERT_EQ(out[0], -7.f) << "wrote before the output";
      tt::gemm::gelu_backward(g.data() + off, xs.data() + off, out.data() + 1, len);
      for (std::int64_t i = 0; i < len; ++i) {
        const std::size_t k = off + static_cast<std::size_t>(i);
        ASSERT_EQ(bits(out[static_cast<std::size_t>(i) + 1]),
                  bits(g[k] * tt::gemm::gelu_grad_scalar(xs[k])))
            << "len " << len << " offset " << off << " i " << i;
      }
    }
  }

  // In place, as the GEMM epilogue calls it.
  std::vector<float> inplace(xs.begin(), xs.begin() + 29);
  tt::gemm::gelu_forward(inplace.data(), inplace.data(), 29);
  for (std::size_t i = 0; i < inplace.size(); ++i)
    ASSERT_EQ(bits(inplace[i]), bits(tt::gemm::gelu_scalar(xs[i])));
}

double ulps_off(float got, double ref) {
  const float r = static_cast<float>(ref);
  const double ulp = static_cast<double>(std::nextafter(std::fabs(r), INFINITY)) - std::fabs(r);
  return std::fabs(static_cast<double>(got) - ref) / ulp;
}

TEST(GeluKernel, AccuracyAgainstDoubleReference) {
  // |err| ≤ 2.5e-7·|x| for gelu and ≤ 2.5e-7·max(1, |x|) for gelu' (whose
  // value is about 0.5 near 0); both ≤ 3 ULP for x > 0.
  const double c = std::sqrt(2.0 / M_PI);
  std::vector<float> xs;
  for (int i = -12 * 8192; i <= 12 * 8192; ++i) xs.push_back(static_cast<float>(i) / 8192.f);
  for (double m = 1e-30; m < 1e-3; m *= 1.01) {
    xs.push_back(static_cast<float>(m));
    xs.push_back(static_cast<float>(-m));
  }
  double worst_rel = 0, worst_ulp = 0, worst_grad_rel = 0, worst_grad_ulp = 0;
  for (const float xf : xs) {
    const double x = xf;
    const double u = c * (x + 0.044715 * x * x * x);
    const double t = std::tanh(u);
    const double ref = 0.5 * x * (1 + t);
    const double ref_grad =
        0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x);
    const float y = tt::gemm::gelu_scalar(xf);
    const float d = tt::gemm::gelu_grad_scalar(xf);
    if (xf != 0.f) worst_rel = std::max(worst_rel, std::fabs(y - ref) / std::fabs(x));
    worst_grad_rel = std::max(worst_grad_rel, std::fabs(d - ref_grad) / std::max(1.0, std::fabs(x)));
    if (xf > 0.f) {
      worst_ulp = std::max(worst_ulp, ulps_off(y, ref));
      worst_grad_ulp = std::max(worst_grad_ulp, ulps_off(d, ref_grad));
    }
  }
  EXPECT_LE(worst_rel, 2.5e-7);
  EXPECT_LE(worst_ulp, 3.0);
  EXPECT_LE(worst_grad_rel, 2.5e-7);
  EXPECT_LE(worst_grad_ulp, 3.0);
  std::printf("gelu: max |err|/|x| %.3g, max ULP (x>0) %.3f; gelu': max |err|/max(1,|x|) "
              "%.3g, max ULP (x>0) %.3f\n",
              worst_rel, worst_ulp, worst_grad_rel, worst_grad_ulp);
}

/// Runs `check(x, gelu(x), gelu'(x))` on each of `xs` through the scalar
/// entry points and the array ones. Nine copies of each value put it in
/// every vector lane; the second, one-shorter call shifts a different run
/// of copies into the scalar tail.
void expect_gelu_all_paths(const std::vector<float>& xs, auto check) {
  for (const float x : xs) check(x, tt::gemm::gelu_scalar(x), tt::gemm::gelu_grad_scalar(x));
  std::vector<float> in;
  for (const float x : xs) in.insert(in.end(), 9, x);
  const std::vector<float> ones(in.size(), 1.f);
  for (const std::size_t len : {in.size(), in.size() - 1}) {
    std::vector<float> y(len), d(len);
    tt::gemm::gelu_forward(in.data(), y.data(), static_cast<std::int64_t>(len));
    tt::gemm::gelu_backward(ones.data(), in.data(), d.data(), static_cast<std::int64_t>(len));
    for (std::size_t i = 0; i < len; ++i) check(in[i], y[i], d[i]);
  }
}

TEST(GeluKernel, SaturatesExactly) {
  const float big = std::numeric_limits<float>::max();
  expect_gelu_all_paths({10.f, 10.5f, 37.f, 1e4f, 3e12f, 1e20f, 1e30f, big},
                        [](float x, float y, float d) {
                          EXPECT_EQ(y, x) << "gelu(" << x << ")";
                          EXPECT_EQ(d, 1.f) << "gelu'(" << x << ")";
                        });
  expect_gelu_all_paths({-10.f, -10.5f, -37.f, -1e4f, -3e12f, -1e20f, -1e30f, -big},
                        [](float x, float y, float d) {
                          EXPECT_EQ(y, 0.f) << "gelu(" << x << ")";
                          EXPECT_TRUE(std::signbit(y)) << "gelu(" << x << ")";
                          EXPECT_EQ(d, 0.f) << "gelu'(" << x << ")";
                        });
}

TEST(GeluKernel, NonFiniteZeroAndSubnormalInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  expect_gelu_all_paths({std::numeric_limits<float>::quiet_NaN()}, [](float, float y, float d) {
    EXPECT_TRUE(std::isnan(y));
    EXPECT_TRUE(std::isnan(d));
  });
  expect_gelu_all_paths({inf}, [](float, float y, float d) {
    EXPECT_EQ(y, std::numeric_limits<float>::infinity());
    EXPECT_TRUE(std::isnan(d));
  });
  expect_gelu_all_paths({-inf}, [](float, float y, float d) {
    EXPECT_TRUE(std::isnan(y));
    EXPECT_TRUE(std::isnan(d));
  });
  expect_gelu_all_paths({0.f, -0.f}, [](float x, float y, float d) {
    EXPECT_EQ(bits(y), bits(x)) << "gelu(±0) keeps the sign";
    EXPECT_EQ(d, 0.5f);
  });
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  expect_gelu_all_paths(
      {denorm_min, -denorm_min, 3 * denorm_min, 1e-39f, -1e-39f, 1e-45f * 4097},
      [denorm_min](float x, float y, float d) {
        EXPECT_LE(std::fabs(y - 0.5f * x), denorm_min) << "gelu(" << x << ") ≈ x/2";
        EXPECT_TRUE(y == 0.f || std::signbit(y) == std::signbit(x));
        EXPECT_EQ(d, 0.5f) << "gelu'(" << x << ")";
      });
}

TEST(OpCounters, FusedOpsKeepDecompositionFlops) {
  // The FLOP ledger is invariant under fusion: linear_gelu counts what
  // linear + gelu counted, linear_from_021 what permute_021 (0 flops) +
  // linear counted — forward and backward.
  taser::util::Rng rng(23);
  Tensor x = Tensor::randn({12, 7}, rng, 0.8f, true);
  Tensor w = Tensor::randn({7, 9}, rng, 0.8f, true);
  Tensor b = Tensor::randn({9}, rng, 0.8f, true);

  taser::tensor::OpCounterSnapshot fused_fwd;
  Tensor yf = tt::linear_gelu(x, w, b);
  const std::uint64_t fused_fwd_flops = fused_fwd.flops();
  taser::tensor::OpCounterSnapshot fused_bwd;
  tt::sum_all(yf).backward();
  const std::uint64_t fused_bwd_flops = fused_bwd.flops();

  x.zero_grad();
  w.zero_grad();
  b.zero_grad();
  taser::tensor::OpCounterSnapshot unfused_fwd;
  Tensor yu = tt::gelu(tt::linear(x, w, b));
  EXPECT_EQ(fused_fwd_flops, unfused_fwd.flops());
  taser::tensor::OpCounterSnapshot unfused_bwd;
  tt::sum_all(yu).backward();
  EXPECT_EQ(fused_bwd_flops, unfused_bwd.flops());

  // Same invariance for the permute-consuming op.
  Tensor x3 = Tensor::randn({3, 5, 7}, rng, 0.8f, true);
  Tensor w3 = Tensor::randn({5, 4}, rng, 0.8f, true);
  taser::tensor::OpCounterSnapshot f2;
  Tensor y2 = tt::linear_from_021(x3, w3, Tensor());
  const std::uint64_t f2_fwd = f2.flops();
  taser::tensor::OpCounterSnapshot f2b;
  tt::sum_all(y2).backward();
  const std::uint64_t f2_bwd = f2b.flops();

  x3.zero_grad();
  w3.zero_grad();
  taser::tensor::OpCounterSnapshot u2;
  Tensor y2u = tt::linear(tt::permute_021(x3), w3, Tensor());
  EXPECT_EQ(f2_fwd, u2.flops());
  taser::tensor::OpCounterSnapshot u2b;
  tt::sum_all(y2u).backward();
  EXPECT_EQ(f2_bwd, u2b.flops());
}

TEST(OpCounters, UnrolledGemmMatchesNaiveReference) {
  // k = 11 exercises the 4-wide main loop plus a 3-wide tail; a zero
  // block exercises the hoisted skip.
  const std::int64_t m = 5, k = 11, n = 7;
  taser::util::Rng rng(41);
  std::vector<float> av(static_cast<std::size_t>(m * k)), bv(static_cast<std::size_t>(k * n));
  for (auto& x : av) x = rng.next_uniform(-1.f, 1.f);
  for (auto& x : bv) x = rng.next_uniform(-1.f, 1.f);
  for (std::int64_t p = 4; p < 8; ++p) av[static_cast<std::size_t>(p)] = 0.f;  // row 0 block

  std::vector<float> expect(static_cast<std::size_t>(m * n), 0.f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(av[static_cast<std::size_t>(i * k + p)]) *
               static_cast<double>(bv[static_cast<std::size_t>(p * n + j)]);
      expect[static_cast<std::size_t>(i * n + j)] = static_cast<float>(acc);
    }

  Tensor c = tt::matmul(Tensor::from_vector({m, k}, std::move(av)),
                        Tensor::from_vector({k, n}, std::move(bv)));
  expect_all_close(c, expect, 1e-4f);
}

}  // namespace
