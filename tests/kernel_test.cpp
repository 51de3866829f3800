// Kernel-layer backend parity (DESIGN.md §9).
//
// Class A kernels (matvec/mm/spmv/spmm/gram/axpy) must agree *bitwise*
// between the scalar reference and the AVX2 backend: the SIMD forms
// vectorize only across independent outputs with separate mul+add, so
// every output element replays the scalar operation sequence. Class B
// reductions (dot/sumsq/neg_dot_from) use FMA multi-accumulator chains and
// are held to a documented relative tolerance instead. Shapes are
// randomized and deliberately include remainder lanes (n % 4 != 0),
// empty and 1-element operands.
//
// On hardware without AVX2+FMA the AVX2 table is unavailable and the
// parity bodies self-skip; dispatch-policy tests still run everywhere.
#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector.hpp"

namespace protemp {
namespace {

using linalg::Matrix;
using linalg::SparseBuilder;
using linalg::SparseMatrix;
using linalg::Vector;
using linalg::kernels::CsrView;
using linalg::kernels::KernelBackend;
using linalg::kernels::KernelOps;

// Class B relative tolerance: FMA 4-lane reassociation moves each term's
// rounding by at most a few ulps, so the relative error of the sum is
// bounded well below 1e-13 for the magnitudes these tests generate.
constexpr double kClassBRelTol = 1e-13;

// GTEST_SKIP only works from void-returning scope, hence a macro.
#define SKIP_WITHOUT_AVX2()                                          \
  if (!linalg::kernels::cpu_supports_avx2() ||                       \
      linalg::kernels::avx2_ops() == nullptr) {                      \
    GTEST_SKIP() << "AVX2+FMA unavailable; parity suite self-skips"; \
  }                                                                  \
  static_assert(true, "")

std::vector<double> random_doubles(std::mt19937_64& rng, std::size_t n,
                                   double zero_fraction = 0.0) {
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> out(n);
  for (auto& x : out) {
    x = (zero_fraction > 0.0 && coin(rng) < zero_fraction) ? 0.0 : value(rng);
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Shapes covering SIMD remainders: empty, single element, below one lane
// group, exact multiples of 4 and 8, and n % 4 != 0 stragglers.
const std::size_t kEdgeSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 31, 33};

// ----------------------------------------------------- Class A: bitwise --

TEST(KernelParity, MatvecAddBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(1);
  for (const std::size_t rows : kEdgeSizes) {
    for (const std::size_t cols : kEdgeSizes) {
      const auto a = random_doubles(rng, rows * cols);
      const auto x = random_doubles(rng, cols);
      auto out_s = random_doubles(rng, rows);
      auto out_v = out_s;
      scalar.matvec_add(a.data(), rows, cols, x.data(), out_s.data());
      avx2->matvec_add(a.data(), rows, cols, x.data(), out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v))
          << "matvec_add " << rows << "x" << cols;
    }
  }
}

TEST(KernelParity, MatvecTransposedAddBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(2);
  for (const std::size_t rows : kEdgeSizes) {
    for (const std::size_t cols : kEdgeSizes) {
      const auto a = random_doubles(rng, rows * cols);
      // Include exact zeros: the scalar kernel skips x[i] == 0.0 rows and
      // the SIMD form must preserve that (skipping only removes exact-zero
      // addends, but the *row visit order* matters for everything else).
      const auto x = random_doubles(rng, rows, 0.3);
      auto out_s = random_doubles(rng, cols);
      auto out_v = out_s;
      scalar.matvec_t_add(a.data(), rows, cols, x.data(), out_s.data());
      avx2->matvec_t_add(a.data(), rows, cols, x.data(), out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v))
          << "matvec_t_add " << rows << "x" << cols;
    }
  }
}

TEST(KernelParity, MatrixMultiplyRawBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = rng() % 17;
    const std::size_t inner = rng() % 17;
    const std::size_t bcols = rng() % 17;
    const auto a = random_doubles(rng, rows * inner);
    const auto b = random_doubles(rng, inner * bcols);
    std::vector<double> out_s(rows * bcols, 0.5);  // mm_raw must overwrite
    std::vector<double> out_v(rows * bcols, -0.5);
    scalar.mm_raw(a.data(), rows, inner, b.data(), bcols, out_s.data());
    avx2->mm_raw(a.data(), rows, inner, b.data(), bcols, out_v.data());
    EXPECT_TRUE(bitwise_equal(out_s, out_v))
        << "mm_raw " << rows << "x" << inner << "x" << bcols;
  }
}

SparseMatrix random_sparse(std::mt19937_64& rng, std::size_t rows,
                           std::size_t cols, double density) {
  SparseBuilder builder(rows, cols);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (coin(rng) < density) builder.add(i, j, value(rng));
    }
  }
  return builder.build();
}

TEST(KernelParity, SpmvAddBitwiseAcrossDensities) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(4);
  for (const std::size_t rows : kEdgeSizes) {
    for (const double density : {0.0, 0.05, 0.3, 1.0}) {
      const std::size_t cols = 1 + rng() % 40;
      const SparseMatrix m = random_sparse(rng, rows, cols, density);
      const CsrView view = m.view();
      const auto x = random_doubles(rng, cols);
      auto out_s = random_doubles(rng, rows);
      auto out_v = out_s;
      scalar.spmv_add(view, x.data(), out_s.data());
      avx2->spmv_add(view, x.data(), out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v))
          << "spmv_add " << rows << "x" << cols << " density " << density;
    }
  }
}

TEST(KernelParity, SpmvPreservesNegativeZeroAccumulators) {
  // A padded slab lane must never touch its accumulator bits: blendv, not
  // "+= 0.0 * x". This distinguishes the two — (-0.0) + (+0.0) is +0.0.
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  // Rows 0..3 form one slab; row 0 has 2 entries, rows 1-3 have 1, so rows
  // 1-3 run one padded k-step each. Entries multiply to -0.0.
  SparseBuilder builder(4, 4);
  builder.add(0, 0, -0.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, -0.0);
  builder.add(2, 2, -0.0);
  builder.add(3, 3, -0.0);
  const SparseMatrix m = builder.build();
  std::vector<double> x = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> out_s = {-0.0, -0.0, -0.0, -0.0};
  std::vector<double> out_v = out_s;
  scalar.spmv_add(m.view(), x.data(), out_s.data());
  avx2->spmv_add(m.view(), x.data(), out_v.data());
  EXPECT_TRUE(bitwise_equal(out_s, out_v));
}

TEST(KernelParity, SpmmBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t rows = rng() % 20;
    const std::size_t cols = 1 + rng() % 20;
    const std::size_t bcols = rng() % 13;
    const SparseMatrix m = random_sparse(rng, rows, cols, 0.3);
    const auto b = random_doubles(rng, cols * bcols);
    {
      std::vector<double> out_s(rows * bcols, 0.0);
      auto out_v = out_s;
      scalar.spmm_add(m.view(), b.data(), bcols, out_s.data());
      avx2->spmm_add(m.view(), b.data(), bcols, out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v)) << "spmm_add trial " << trial;
    }
    {
      std::vector<double> out_s(rows * bcols, 1.0);  // must be overwritten
      std::vector<double> out_v(rows * bcols, 2.0);
      scalar.spmm_raw(m.view(), b.data(), bcols, out_s.data());
      avx2->spmm_raw(m.view(), b.data(), bcols, out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v)) << "spmm_raw trial " << trial;
    }
  }
}

TEST(KernelParity, GramWeightedBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(6);
  for (const std::size_t rows : kEdgeSizes) {
    for (const std::size_t cols : kEdgeSizes) {
      const auto a = random_doubles(rng, rows * cols, 0.2);
      const auto w = random_doubles(rng, rows, 0.3);  // exercise w==0 skips
      std::vector<double> out_s(cols * cols, 0.0);
      auto out_v = out_s;
      scalar.gram_weighted(a.data(), rows, cols, w.data(), out_s.data());
      avx2->gram_weighted(a.data(), rows, cols, w.data(), out_v.data());
      EXPECT_TRUE(bitwise_equal(out_s, out_v))
          << "gram_weighted " << rows << "x" << cols;
    }
  }
}

TEST(KernelParity, GramWeightedNarrowPathBitwise) {
  // Every width the register-resident narrow path takes, the first width
  // past its cutoff and a 64-column tiled system, at row counts 0-3 mod 4
  // plus the niagara8 program (3417 x 9) and phase-I (3418 x 10) shapes.
  // Rows cycle through single-nonzero rows (the sigma bound rows), rows
  // mixing 0.0 and -0.0 entries, zero-weight rows, all -0.0 rows and
  // (in one of two passes per shape) dense rows; weights span 1e-20 to
  // 1e20, and the output starts as +0.0 or -0.0.
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  const std::size_t cutoff = linalg::kernels::kAvx2NarrowGramCols;
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t cols = 1; cols <= cutoff + 1; ++cols) {
    for (std::size_t rows = 40; rows < 44; ++rows) {
      shapes.emplace_back(rows, cols);
    }
  }
  for (std::size_t rows = 40; rows < 44; ++rows) {
    shapes.emplace_back(rows, 64);
  }
  shapes.emplace_back(3417, 9);
  shapes.emplace_back(3418, 10);

  std::mt19937_64 rng(16);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> exponent(-20.0, 20.0);
  for (const auto& [rows, cols] : shapes) {
    for (const bool dense : {true, false}) {
      std::vector<double> a(rows * cols, 0.0);
      std::vector<double> w(rows);
      for (std::size_t k = 0; k < rows; ++k) {
        double* r = a.data() + k * cols;
        w[k] = std::pow(10.0, exponent(rng));
        // Without dense rows many elements end as a signed zero, so a skip
        // that is not replayed exactly shows as a flipped sign bit.
        switch (dense ? k % 5 : k % 4) {
          case 0:  // single nonzero: a sigma bound row
            r[(k / 5) % cols] = (k / 5) % 2 == 0 ? 1.0 : -1.0;
            break;
          case 1:  // signed zeros among nonzeros
            for (std::size_t j = 0; j < cols; ++j) {
              const std::size_t pick = rng() % 3;
              r[j] = pick == 0 ? 0.0 : pick == 1 ? -0.0 : value(rng);
            }
            break;
          case 2:  // zero weight on a dense row
            for (std::size_t j = 0; j < cols; ++j) r[j] = value(rng);
            w[k] = 0.0;
            break;
          case 3:  // all -0.0
            for (std::size_t j = 0; j < cols; ++j) r[j] = -0.0;
            break;
          default:  // dense
            for (std::size_t j = 0; j < cols; ++j) r[j] = value(rng);
            break;
        }
      }
      for (const double fill : {0.0, -0.0}) {
        std::vector<double> out_s(cols * cols, fill);
        auto out_v = out_s;
        scalar.gram_weighted(a.data(), rows, cols, w.data(), out_s.data());
        avx2->gram_weighted(a.data(), rows, cols, w.data(), out_v.data());
        EXPECT_TRUE(bitwise_equal(out_s, out_v))
            << "gram_weighted " << rows << "x" << cols << " fill " << fill
            << (dense ? " with" : " without") << " dense rows";
      }
    }
  }
}

TEST(KernelParity, AxpyBitwise) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(7);
  for (const std::size_t n : kEdgeSizes) {
    const auto x = random_doubles(rng, n);
    auto y_s = random_doubles(rng, n);
    auto y_v = y_s;
    scalar.axpy(n, 1.7, x.data(), y_s.data());
    avx2->axpy(n, 1.7, x.data(), y_v.data());
    EXPECT_TRUE(bitwise_equal(y_s, y_v)) << "axpy n=" << n;
  }
}

// ------------------------------------------- Class B: ulp-level parity --

TEST(KernelParity, ReductionsWithinDocumentedTolerance) {
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  std::mt19937_64 rng(8);
  for (const std::size_t n : kEdgeSizes) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto x = random_doubles(rng, n);
      const auto y = random_doubles(rng, n);
      const double dot_s = scalar.dot(n, x.data(), y.data());
      const double dot_v = avx2->dot(n, x.data(), y.data());
      EXPECT_LE(std::abs(dot_s - dot_v),
                kClassBRelTol * (1.0 + std::abs(dot_s)))
          << "dot n=" << n;
      const double ss_s = scalar.sumsq(n, x.data());
      const double ss_v = avx2->sumsq(n, x.data());
      EXPECT_LE(std::abs(ss_s - ss_v), kClassBRelTol * (1.0 + ss_s))
          << "sumsq n=" << n;
      const double nd_s = scalar.neg_dot_from(3.25, n, x.data(), y.data());
      const double nd_v = avx2->neg_dot_from(3.25, n, x.data(), y.data());
      EXPECT_LE(std::abs(nd_s - nd_v),
                kClassBRelTol * (1.0 + std::abs(nd_s)))
          << "neg_dot_from n=" << n;
    }
  }
}

TEST(KernelParity, ReductionsExactOnTinyInputs) {
  // Below one SIMD lane group both backends run the identical sequential
  // tail, so even Class B is bitwise there.
  SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = linalg::kernels::avx2_ops();
  const KernelOps& scalar = linalg::kernels::scalar_ops();
  const double x[3] = {1.5, -2.25, 0.125};
  const double y[3] = {-0.75, 3.0, 8.0};
  for (std::size_t n = 0; n <= 3; ++n) {
    EXPECT_EQ(scalar.dot(n, x, y), avx2->dot(n, x, y));
    EXPECT_EQ(scalar.sumsq(n, x), avx2->sumsq(n, x));
    EXPECT_EQ(scalar.neg_dot_from(1.0, n, x, y),
              avx2->neg_dot_from(1.0, n, x, y));
  }
}

// --------------------------------------------------- end-to-end parity --

TEST(KernelParity, MatrixAndSparseOpsBitwiseThroughPublicApi) {
  // Same computation through the real Matrix/SparseMatrix entry points
  // under each forced backend. step_into-style products (A*x + b patterns)
  // and the Gram fold are the solver hot path.
  if (!linalg::kernels::cpu_supports_avx2()) {
    GTEST_SKIP() << "AVX2+FMA unavailable; parity suite self-skips";
  }
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  const std::size_t n = 23, m = 17;  // deliberate non-multiples of 4
  Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = value(rng) < -0.4 ? 0.0 : value(rng);
    }
  }
  Vector x(m), w(n);
  for (std::size_t j = 0; j < m; ++j) x[j] = value(rng);
  for (std::size_t i = 0; i < n; ++i) w[i] = value(rng) * value(rng);
  const SparseMatrix sp = SparseMatrix::from_dense(a);

  struct Results {
    Vector ax, atw;
    Matrix gram, spmm;
    Vector sp_ax;
  };
  const auto run = [&](KernelBackend backend) {
    linalg::kernels::force_kernel_backend(backend);
    Results r;
    a.multiply_into(x, r.ax);
    a.multiply_transposed_into(w, r.atw);
    a.gram_weighted_into(w, r.gram);
    sp.multiply_dense_into(a.transposed(), r.spmm);
    sp.multiply_into(x, r.sp_ax);
    return r;
  };
  const Results scalar = run(KernelBackend::kScalar);
  const Results avx2 = run(KernelBackend::kAvx2);
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);

  EXPECT_TRUE(scalar.ax.approx_equal(avx2.ax, 0.0));
  EXPECT_TRUE(scalar.atw.approx_equal(avx2.atw, 0.0));
  EXPECT_TRUE(scalar.gram.approx_equal(avx2.gram, 0.0));
  EXPECT_TRUE(scalar.spmm.approx_equal(avx2.spmm, 0.0));
  EXPECT_TRUE(scalar.sp_ax.approx_equal(avx2.sp_ax, 0.0));
}

// ------------------------------------------------------------ dispatch --

TEST(KernelDispatch, ParseAndToStringRoundTrip) {
  using linalg::kernels::parse_kernel_backend;
  EXPECT_EQ(parse_kernel_backend("auto"), KernelBackend::kAuto);
  EXPECT_EQ(parse_kernel_backend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(parse_kernel_backend("avx2"), KernelBackend::kAvx2);
  EXPECT_FALSE(parse_kernel_backend("sse2").has_value());
  EXPECT_FALSE(parse_kernel_backend("").has_value());
  EXPECT_FALSE(parse_kernel_backend("AVX2").has_value());
  for (const auto b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2}) {
    EXPECT_EQ(parse_kernel_backend(linalg::kernels::to_string(b)), b);
  }
}

TEST(KernelDispatch, ForceOverridesAndAutoReresolves) {
  const KernelBackend original = linalg::kernels::active_backend();
  linalg::kernels::force_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(linalg::kernels::active_backend(), KernelBackend::kScalar);
  EXPECT_EQ(&linalg::kernels::active(), &linalg::kernels::scalar_ops());
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);
  EXPECT_EQ(linalg::kernels::active_backend(), original);
  EXPECT_NE(linalg::kernels::active_backend(), KernelBackend::kAuto);
}

TEST(KernelDispatch, Avx2RequestFallsBackWithoutCpuSupport) {
  linalg::kernels::force_kernel_backend(KernelBackend::kAvx2);
  const KernelBackend got = linalg::kernels::active_backend();
  if (linalg::kernels::cpu_supports_avx2()) {
    EXPECT_EQ(got, KernelBackend::kAvx2);
    EXPECT_EQ(&linalg::kernels::active(), linalg::kernels::avx2_ops());
  } else {
    EXPECT_EQ(got, KernelBackend::kScalar);
    EXPECT_EQ(&linalg::kernels::active(), &linalg::kernels::scalar_ops());
  }
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);
}

TEST(KernelDispatch, AutoMatchesCpuSupport) {
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);
  // (Assumes PROTEMP_KERNEL_BACKEND is unset or "auto" in the dev loop;
  // the forced-scalar CI leg exercises the env path end to end.)
  const char* env = std::getenv("PROTEMP_KERNEL_BACKEND");
  if (env != nullptr && std::string_view(env) != "auto") {
    GTEST_SKIP() << "PROTEMP_KERNEL_BACKEND forces " << env;
  }
  if (linalg::kernels::cpu_supports_avx2()) {
    EXPECT_EQ(linalg::kernels::active_backend(), KernelBackend::kAvx2);
  } else {
    EXPECT_EQ(linalg::kernels::active_backend(), KernelBackend::kScalar);
  }
}

TEST(KernelDispatch, AlignedStorageContract) {
  // Matrix/Vector buffers carry the kernel layer's 32-byte alignment.
  const Vector v(33);
  const Matrix m(9, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                linalg::kSimdAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row_data(0)) %
                linalg::kSimdAlignment,
            0u);
}

}  // namespace
}  // namespace protemp
