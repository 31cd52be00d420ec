// GEMM backend micro-benchmark + correctness canary.
//
// Default mode: GFLOP/s sweep over the dense shapes the adaptive path
// actually hits at the paper-scale batch (T=2000 targets, m=32
// candidates, encoder width 96 → decoder trunk channels×4 MLP), the
// token-mixing transposes, the tiny edge-predictor head, and the big-k
// dW backward — the replica of the pre-backend 4-wide-unrolled kernels
// vs the packed cache-blocked backend, printed as a table. The last rows
// are the decoder trunk (fc1 + GELU epilogue, fc2, dW) at the shape the
// repo benchmark's train-adaptive workload issues.
//
// --smoke: no timing; cross-checks the packed backend (all transpose
// variants, fused bias/GELU epilogues, the batched permute_021 view, and
// the zero-chunk skip) against a naive double-precision reference on
// tiny, odd, tile-unaligned shapes. Exits non-zero on any mismatch —
// wired into ctest so kernel regressions surface in CI.
//
// Both modes print which register tile ran (gemm::kernel_isa()) and record
// it as the `gemm.kernel_isa` label of the --json report.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "tensor/gemm_kernels.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace gemm = taser::tensor::gemm;
using taser::util::Rng;
using taser::util::Table;
using taser::util::WallTimer;
using i64 = std::int64_t;

namespace {

// ---- replicas of the pre-backend kernels (ops_matmul.cpp before the
// packed backend): 4-wide k-unroll, zero-skip at block granularity,
// cache-oblivious. Kept here as the benchmark baseline only. ------------------

void old_gemm_acc(const float* A, const float* B, float* C, i64 m, i64 k, i64 n) {
#pragma omp parallel for schedule(static) if (m * k * n > (1 << 16))
  for (i64 i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    const float* a_row = A + i * k;
    i64 p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = a_row[p], a1 = a_row[p + 1], a2 = a_row[p + 2], a3 = a_row[p + 3];
      if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
      const float* b0 = B + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (i64 j = 0; j < n; ++j)
        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (; p < k; ++p) {
      const float a = a_row[p];
      if (a == 0.f) continue;
      const float* b_row = B + p * n;
      for (i64 j = 0; j < n; ++j) c_row[j] += a * b_row[j];
    }
  }
}

void old_gemm_at_b_acc(const float* A, const float* B, float* C, i64 m, i64 k, i64 n) {
#pragma omp parallel for schedule(static) if (m * k * n > (1 << 16))
  for (i64 i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    i64 p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = A[p * m + i], a1 = A[(p + 1) * m + i], a2 = A[(p + 2) * m + i],
                  a3 = A[(p + 3) * m + i];
      if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
      const float* b0 = B + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (i64 j = 0; j < n; ++j)
        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (; p < k; ++p) {
      const float a = A[p * m + i];
      if (a == 0.f) continue;
      const float* b_row = B + p * n;
      for (i64 j = 0; j < n; ++j) c_row[j] += a * b_row[j];
    }
  }
}

void fill_uniform(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = rng.next_uniform(-1.f, 1.f);
}

// ---- perf sweep -------------------------------------------------------------

struct ShapeResult {
  std::string label;
  double old_gflops = 0, new_gflops = 0;
};

template <typename OldFn, typename NewFn>
ShapeResult measure(const std::string& label, double flops_per_iter, OldFn old_fn,
                    NewFn new_fn) {
  ShapeResult r;
  r.label = label;
  const int iters = flops_per_iter > 1e9 ? 2 : 15;
  const int reps = 3;  // best-of-reps: shields the gate from scheduler noise
  for (int impl = 0; impl < 2; ++impl) {
    auto run = [&] {
      if (impl == 0)
        old_fn();
      else
        new_fn();
    };
    run();  // warm (packs buffers, faults pages)
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer t;
      for (int it = 0; it < iters; ++it) run();
      best = std::max(best, flops_per_iter * iters / t.seconds() / 1e9);
    }
    (impl == 0 ? r.old_gflops : r.new_gflops) = best;
  }
  return r;
}

/// Prints and records which register tile the packed backend runs.
void report_kernel_isa() {
  std::printf("packed kernel ISA: %s\n\n", gemm::kernel_isa());
  taser::bench::report_label("gemm.kernel_isa", gemm::kernel_isa());
}

int run_sweep() {
  std::printf("== GEMM backend: old 4-wide kernels vs packed cache-blocked ==\n");
  std::printf("(decoder-trunk shapes at T=2000, m=32, width 96; token-mix; "
              "edge head; dW big-k; the trunk at the repo benchmark's shape)\n");
  report_kernel_isa();
  Rng rng(7);

  // Adaptive-path dims: T=2000 targets x m=32 candidates, encoder
  // width c=96 (dim=16 config x4 sources + identity m=32), channel MLP
  // hidden 4c, token MLP hidden tokens/2.
  const i64 T = 2000, m = 32, c = 96;
  const i64 rows = T * m, ch_hidden = 4 * c, tok_hidden = m / 2;

  std::vector<ShapeResult> results;
  std::vector<float> A, B, C, P;

  auto dense = [&](const std::string& label, i64 mm, i64 kk, i64 nn, bool trunk) {
    A.assign(static_cast<std::size_t>(mm * kk), 0.f);
    B.assign(static_cast<std::size_t>(kk * nn), 0.f);
    C.assign(static_cast<std::size_t>(mm * nn), 0.f);
    fill_uniform(A, rng);
    fill_uniform(B, rng);
    auto r = measure(
        label, 2.0 * mm * kk * nn,
        [&] { old_gemm_acc(A.data(), B.data(), C.data(), mm, kk, nn); },
        [&] {
          gemm::gemm_acc(gemm::row_major(A.data(), kk), gemm::row_major(B.data(), nn),
                         C.data(), mm, kk, nn);
        });
    (void)trunk;
    results.push_back(r);
    return r;
  };

  auto r1 = dense("trunk channel fc1 [" + std::to_string(rows) + "x96 · 96x384]", rows,
                  c, ch_hidden, true);
  auto r2 = dense("trunk channel fc2 [" + std::to_string(rows) + "x384 · 384x96]", rows,
                  ch_hidden, c, true);

  // Token mixing: x [T, m, c] consumed through the permute_021 view.
  // The old path materialized the [T, c, m] transpose first; that copy is
  // part of what the strided-B path removes, so it is timed with it.
  {
    A.assign(static_cast<std::size_t>(T * m * c), 0.f);  // x
    fill_uniform(A, rng);
    B.assign(static_cast<std::size_t>(m * tok_hidden), 0.f);  // w
    fill_uniform(B, rng);
    C.assign(static_cast<std::size_t>(T * c * tok_hidden), 0.f);
    P.assign(static_cast<std::size_t>(T * c * m), 0.f);  // old path's transpose
    auto r = measure(
        "token-mix fc1 (permute_021 · [32x16]) x" + std::to_string(T),
        2.0 * T * c * m * tok_hidden,
        [&] {
          for (i64 b = 0; b < T; ++b) {
            const float* xb = A.data() + b * m * c;
            float* pb = P.data() + b * c * m;
            for (i64 i = 0; i < m; ++i)
              for (i64 j = 0; j < c; ++j) pb[j * m + i] = xb[i * c + j];
          }
          old_gemm_acc(P.data(), B.data(), C.data(), T * c, m, tok_hidden);
        },
        [&] {
          gemm::gemm_batched_acc({A.data(), 1, c}, m * c, T,
                                 gemm::row_major(B.data(), tok_hidden), C.data(),
                                 c * tok_hidden, c, m, tok_hidden);
        });
    results.push_back(r);
  }

  dense("edge head [" + std::to_string(rows) + "x96 · 96x1]", rows, c, 1, false);

  // dW = Xᵀ·g — the big-k backward shape (k = rows), streamed regime.
  auto dw_backward = [&](i64 width, i64 kk, i64 hidden) {
    A.assign(static_cast<std::size_t>(kk * width), 0.f);  // X [kk, width]
    B.assign(static_cast<std::size_t>(kk * hidden), 0.f);  // g [kk, hidden]
    C.assign(static_cast<std::size_t>(width * hidden), 0.f);
    fill_uniform(A, rng);
    fill_uniform(B, rng);
    results.push_back(measure(
        "dW backward [" + std::to_string(width) + "x" + std::to_string(kk) + " · " +
            std::to_string(kk) + "x" + std::to_string(hidden) + "]",
        2.0 * width * kk * hidden,
        [&] { old_gemm_at_b_acc(A.data(), B.data(), C.data(), width, kk, hidden); },
        [&] {
          gemm::gemm_acc(gemm::transposed(A.data(), width),
                         gemm::row_major(B.data(), hidden), C.data(), width, kk, hidden);
        }));
  };
  dw_backward(c, rows, ch_hidden);

  // The decoder trunk at the shape the repo benchmark's train-adaptive
  // workload issues (taserbench: T·m = 7500 candidate rows, 325 channels,
  // channel-MLP hidden 4·325). fc1 carries the fused bias + GELU epilogue;
  // the old column applies the same GELU after the old kernel.
  {
    const i64 bench_rows = 7500, bench_c = 325, bench_hidden = 4 * bench_c;
    A.assign(static_cast<std::size_t>(bench_rows * bench_c), 0.f);
    B.assign(static_cast<std::size_t>(bench_c * bench_hidden), 0.f);
    C.assign(static_cast<std::size_t>(bench_rows * bench_hidden), 0.f);
    std::vector<float> bias(static_cast<std::size_t>(bench_hidden));
    fill_uniform(A, rng);
    fill_uniform(B, rng);
    fill_uniform(bias, rng);
    gemm::Epilogue ep;
    ep.bias = bias.data();
    ep.gelu = true;
    ep.beta_zero = true;
    results.push_back(measure(
        "bench trunk fc1+GELU [7500x325 · 325x1300]",
        2.0 * bench_rows * bench_c * bench_hidden,
        [&] {
          old_gemm_acc(A.data(), B.data(), C.data(), bench_rows, bench_c, bench_hidden);
#pragma omp parallel for schedule(static)
          for (i64 i = 0; i < bench_rows; ++i) {
            float* row = C.data() + i * bench_hidden;
            for (i64 j = 0; j < bench_hidden; ++j) row[j] += bias[static_cast<std::size_t>(j)];
            gemm::gelu_forward(row, row, bench_hidden);
          }
        },
        [&] {
          gemm::gemm_acc(gemm::row_major(A.data(), bench_c),
                         gemm::row_major(B.data(), bench_hidden), C.data(), bench_rows,
                         bench_c, bench_hidden, ep);
        }));
    dense("bench trunk fc2 [7500x1300 · 1300x325]", bench_rows, bench_hidden, bench_c,
          false);
    dw_backward(bench_c, bench_rows, bench_hidden);
  }

  Table table({"shape", "old GFLOP/s", "new GFLOP/s", "speedup"});
  for (const auto& r : results)
    table.add_row({r.label, Table::fmt(r.old_gflops, 2), Table::fmt(r.new_gflops, 2),
                   Table::fmt(r.new_gflops / r.old_gflops, 2)});
  table.print();

  const double trunk_speedup =
      std::min(r1.new_gflops / r1.old_gflops, r2.new_gflops / r2.old_gflops);
  std::printf("\ngemm-gate: packed backend >= 2x GFLOP/s on decoder-trunk shapes — "
              "%s (min %.2fx)\n",
              trunk_speedup >= 2.0 ? "HELD" : "MISSED", trunk_speedup);
  taser::bench::report_metric("sweep.trunk_speedup", trunk_speedup);
  return trunk_speedup >= 2.0 ? 0 : 1;
}

// ---- smoke: correctness vs naive double reference ---------------------------

int g_failures = 0;

void expect_close(const char* what, const std::vector<float>& got,
                  const std::vector<double>& want, double tol = 2e-4) {
  double max_err = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(got[i]) - want[i]));
  const bool ok = max_err <= tol;
  std::printf("  %-52s %s (max err %.2e)\n", what, ok ? "PASS" : "FAIL", max_err);
  if (!ok) ++g_failures;
}

double gelu_ref(double x) {
  const double kC = 0.7978845608028654;
  return 0.5 * x * (1.0 + std::tanh(kC * (x + 0.044715 * x * x * x)));
}

void smoke_shape(i64 m, i64 k, i64 n, Rng& rng) {
  std::vector<float> A(static_cast<std::size_t>(m * k)), B(static_cast<std::size_t>(k * n)),
      bias(static_cast<std::size_t>(n));
  fill_uniform(A, rng);
  fill_uniform(B, rng);
  fill_uniform(bias, rng);
  // A zero stripe exercises the packed zero-chunk skip.
  if (m > 2)
    for (i64 p = 0; p < k; ++p) A[static_cast<std::size_t>(2 * k + p)] = 0.f;

  char label[128];

  // Plain C += A·B.
  std::vector<float> C(static_cast<std::size_t>(m * n), 0.5f);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.5);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        ref[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
            B[static_cast<std::size_t>(p * n + j)];
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::row_major(B.data(), n), C.data(),
                 m, k, n);
  std::snprintf(label, sizeof label, "A·B acc              m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, C, ref);

  // Aᵀ stored [k,m]: C += Aᵀ'·B where A' = A reinterpreted column-major.
  std::vector<float> Ct(static_cast<std::size_t>(m * n), 0.f);
  std::vector<double> reft(static_cast<std::size_t>(m * n), 0.0);
  // view: element (i,p) = A[p*m + i] (requires A sized k*m — reuse when
  // square-ish, otherwise build a fresh one).
  std::vector<float> At(static_cast<std::size_t>(k * m));
  fill_uniform(At, rng);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        reft[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(At[static_cast<std::size_t>(p * m + i)]) *
            B[static_cast<std::size_t>(p * n + j)];
  gemm::gemm_acc(gemm::transposed(At.data(), m), gemm::row_major(B.data(), n),
                 Ct.data(), m, k, n);
  std::snprintf(label, sizeof label, "Aᵀ·B acc             m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Ct, reft);

  // Bᵀ stored [n,k]: C += A·Bᵀ'.
  std::vector<float> Bt(static_cast<std::size_t>(n * k));
  fill_uniform(Bt, rng);
  std::vector<float> Cbt(static_cast<std::size_t>(m * n), 0.f);
  std::vector<double> refbt(static_cast<std::size_t>(m * n), 0.0);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        refbt[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
            Bt[static_cast<std::size_t>(j * k + p)];
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::transposed(Bt.data(), k),
                 Cbt.data(), m, k, n);
  std::snprintf(label, sizeof label, "A·Bᵀ acc             m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Cbt, refbt);

  // Fused bias + GELU epilogue with saved pre-activation.
  std::vector<float> Cg(static_cast<std::size_t>(m * n), 0.f),
      preact(static_cast<std::size_t>(m * n), 0.f);
  gemm::Epilogue ep;
  ep.bias = bias.data();
  ep.gelu = true;
  ep.preact = preact.data();
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::row_major(B.data(), n), Cg.data(),
                 m, k, n, ep);
  std::vector<double> refu(static_cast<std::size_t>(m * n)),
      refg(static_cast<std::size_t>(m * n));
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j) {
      double u = bias[static_cast<std::size_t>(j)];
      for (i64 p = 0; p < k; ++p)
        u += static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
             B[static_cast<std::size_t>(p * n + j)];
      refu[static_cast<std::size_t>(i * n + j)] = u;
      refg[static_cast<std::size_t>(i * n + j)] = gelu_ref(u);
    }
  std::snprintf(label, sizeof label, "bias+gelu epilogue   m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Cg, refg);
  std::snprintf(label, sizeof label, "saved pre-activation m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, preact, refu);
}

void smoke_batched(Rng& rng) {
  // linear over the permute_021 view: x [B,t,c], w [t,o].
  const i64 nb = 3, t = 5, c = 7, o = 3;
  std::vector<float> x(static_cast<std::size_t>(nb * t * c)),
      w(static_cast<std::size_t>(t * o));
  fill_uniform(x, rng);
  fill_uniform(w, rng);
  std::vector<float> C(static_cast<std::size_t>(nb * c * o), 0.f);
  std::vector<double> ref(static_cast<std::size_t>(nb * c * o), 0.0);
  for (i64 b = 0; b < nb; ++b)
    for (i64 i = 0; i < c; ++i)
      for (i64 j = 0; j < o; ++j)
        for (i64 p = 0; p < t; ++p)
          ref[static_cast<std::size_t>((b * c + i) * o + j)] +=
              static_cast<double>(x[static_cast<std::size_t>((b * t + p) * c + i)]) *
              w[static_cast<std::size_t>(p * o + j)];
  gemm::gemm_batched_acc({x.data(), 1, c}, t * c, nb, gemm::row_major(w.data(), o),
                         C.data(), c * o, c, t, o);
  expect_close("batched permute_021 view (shared packed B)", C, ref);
}

int run_smoke() {
  std::printf("== bench_gemm --smoke: packed backend vs naive reference ==\n");
  report_kernel_isa();
  Rng rng(13);
  // Odd / tile-unaligned shapes around the kMR=6 rows, the 16- and 32-wide
  // panels and the kKC=256 chunk, multi-chunk k, and one shape whose packed
  // B exceeds kPackAllBytes so the streamed regime (S) runs too.
  const i64 shapes[][3] = {{1, 1, 1},    {3, 5, 17},   {6, 16, 16},
                           {7, 17, 33},  {17, 33, 5},  {33, 300, 9},
                           {5, 515, 40}, {5, 3000, 200}};
  for (const auto& s : shapes) smoke_shape(s[0], s[1], s[2], rng);
  smoke_batched(rng);
  std::printf("%s\n", g_failures == 0 ? "smoke: ALL PASS" : "smoke: FAILURES");
  taser::bench::report_metric("smoke.failures", g_failures);
  taser::bench::print_shape("packed backend matches naive reference", g_failures == 0);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  int rc = smoke ? run_smoke() : run_sweep();
  rc |= taser::bench::write_json_report(argc, argv, "bench_gemm");
  return rc;
}
