// AVX2/FMA kernel backend.
//
// Compiled with -mavx2 -mfma (per-source flags in CMakeLists.txt); on
// non-x86 targets the whole table degrades to null and dispatch stays on
// scalar.
//
// Class A kernels are bitwise-exact against the scalar backend: they
// vectorize across *independent* accumulators only — 4 output rows of a
// SpMV slab, 4 adjacent output columns of a row — and keep multiply and
// add as separate roundings (never FMA), so every output element performs
// exactly the scalar sequence of IEEE operations. Padded SpMV slab lanes
// go through blendv rather than adding a zero product: adding +0.0 to a
// -0.0 accumulator would flip its sign bit, and a structural-zero product
// against a negative x genuinely produces -0.0.
//
// Class B kernels (dot/sumsq/neg_dot_from) are the FMA multi-accumulator
// reductions; they reassociate the chain (4 lanes x 2 registers) and fuse
// the multiply, which is the entire speedup and the documented ulp-level
// divergence from scalar.
#include "linalg/kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <array>
#include <type_traits>
#include <utility>

namespace protemp::linalg::kernels {
namespace avx2 {

namespace {

/// Horizontal sum of a 4-lane register in a fixed lane order:
/// ((v0 + v2) + (v1 + v3)) — deterministic for this backend.
inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);             // {v0+v2, v1+v3}
  const __m128d swap = _mm_unpackhi_pd(pair, pair);    // {v1+v3, v1+v3}
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

/// Transposes four row loads (rows r0..r3, columns k..k+3) into four
/// column registers c[0..3], c[t] = {a0[k+t], a1[k+t], a2[k+t], a3[k+t]}.
inline void transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                       __m256d& c0, __m256d& c1, __m256d& c2,
                       __m256d& c3) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // a0[k],   a1[k],   a0[k+2], a1[k+2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // a0[k+1], a1[k+1], a0[k+3], a1[k+3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

}  // namespace

void matvec_add(const double* a, std::size_t rows, std::size_t cols,
                const double* x, double* out) {
  std::size_t i = 0;
  // 4 rows at a time: one accumulator lane per row, columns consumed in
  // ascending order — each lane replays the scalar row sum exactly.
  for (; i + 4 <= rows; i += 4) {
    const double* a0 = a + i * cols;
    const double* a1 = a0 + cols;
    const double* a2 = a1 + cols;
    const double* a3 = a2 + cols;
    __m256d acc = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= cols; k += 4) {
      __m256d c0, c1, c2, c3;
      transpose4(_mm256_loadu_pd(a0 + k), _mm256_loadu_pd(a1 + k),
                 _mm256_loadu_pd(a2 + k), _mm256_loadu_pd(a3 + k),
                 c0, c1, c2, c3);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c0, _mm256_set1_pd(x[k])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c1, _mm256_set1_pd(x[k + 1])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c2, _mm256_set1_pd(x[k + 2])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c3, _mm256_set1_pd(x[k + 3])));
    }
    for (; k < cols; ++k) {
      const __m256d c = _mm256_set_pd(a3[k], a2[k], a1[k], a0[k]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c, _mm256_set1_pd(x[k])));
    }
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), acc));
  }
  for (; i < rows; ++i) {
    const double* r = a + i * cols;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += r[j] * x[j];
    out[i] += acc;
  }
}

void matvec_t_add(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, double* out) {
  // Rows in order, 4 output columns per step: out[j] accumulates row
  // contributions in the same i sequence as scalar, and the xi == 0.0
  // skip is preserved.
  for (std::size_t i = 0; i < rows; ++i) {
    const double* r = a + i * cols;
    const double xi = x[i];
    if (xi == 0.0) continue;
    const __m256d vx = _mm256_set1_pd(xi);
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(r + j), vx);
      _mm256_storeu_pd(out + j,
                       _mm256_add_pd(_mm256_loadu_pd(out + j), prod));
    }
    for (; j < cols; ++j) out[j] += r[j] * xi;
  }
}

namespace {

/// o[0..bcols) += aik * br[0..bcols), 4 columns per step — the shared
/// inner row update of mm_raw / spmm_add / spmm_raw.
inline void row_axpy(double aik, const double* br, std::size_t bcols,
                     double* o) noexcept {
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  // 8 columns per step (two independent 4-lane updates) so the loop is
  // bounded by load/store throughput, not per-iteration overhead.
  for (; j + 8 <= bcols; j += 8) {
    const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(br + j), va);
    const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(br + j + 4), va);
    _mm256_storeu_pd(o + j, _mm256_add_pd(_mm256_loadu_pd(o + j), p0));
    _mm256_storeu_pd(o + j + 4,
                     _mm256_add_pd(_mm256_loadu_pd(o + j + 4), p1));
  }
  for (; j + 4 <= bcols; j += 4) {
    const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(br + j), va);
    _mm256_storeu_pd(o + j, _mm256_add_pd(_mm256_loadu_pd(o + j), prod));
  }
  for (; j < bcols; ++j) o[j] += aik * br[j];
}

/// out[0..n) += ws[0]*rs[0][j], then += ws[1]*rs[1][j], ... in that order
/// per element — the same add sequence as four consecutive row_axpy calls,
/// but with one load/store of `o` per element instead of four. The Gram
/// kernel below is store-bound without this.
inline void row_axpy4(const double* ws, const double* const* rs,
                      std::size_t n, double* o) noexcept {
  const __m256d va0 = _mm256_set1_pd(ws[0]);
  const __m256d va1 = _mm256_set1_pd(ws[1]);
  const __m256d va2 = _mm256_set1_pd(ws[2]);
  const __m256d va3 = _mm256_set1_pd(ws[3]);
  const double *r0 = rs[0], *r1 = rs[1], *r2 = rs[2], *r3 = rs[3];
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d o0 = _mm256_loadu_pd(o + j);
    __m256d o1 = _mm256_loadu_pd(o + j + 4);
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r0 + j), va0));
    o1 = _mm256_add_pd(o1, _mm256_mul_pd(_mm256_loadu_pd(r0 + j + 4), va0));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r1 + j), va1));
    o1 = _mm256_add_pd(o1, _mm256_mul_pd(_mm256_loadu_pd(r1 + j + 4), va1));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r2 + j), va2));
    o1 = _mm256_add_pd(o1, _mm256_mul_pd(_mm256_loadu_pd(r2 + j + 4), va2));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r3 + j), va3));
    o1 = _mm256_add_pd(o1, _mm256_mul_pd(_mm256_loadu_pd(r3 + j + 4), va3));
    _mm256_storeu_pd(o + j, o0);
    _mm256_storeu_pd(o + j + 4, o1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d o0 = _mm256_loadu_pd(o + j);
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r0 + j), va0));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r1 + j), va1));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r2 + j), va2));
    o0 = _mm256_add_pd(o0, _mm256_mul_pd(_mm256_loadu_pd(r3 + j), va3));
    _mm256_storeu_pd(o + j, o0);
  }
  for (; j < n; ++j) {
    double v = o[j];
    v += ws[0] * r0[j];
    v += ws[1] * r1[j];
    v += ws[2] * r2[j];
    v += ws[3] * r3[j];
    o[j] = v;
  }
}

inline void zero_row(double* o, std::size_t bcols) noexcept {
  std::size_t j = 0;
  const __m256d z = _mm256_setzero_pd();
  for (; j + 4 <= bcols; j += 4) _mm256_storeu_pd(o + j, z);
  for (; j < bcols; ++j) o[j] = 0.0;
}

}  // namespace

void mm_raw(const double* a, std::size_t rows, std::size_t acols,
            const double* b, std::size_t bcols, double* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ar = a + i * acols;
    double* o = out + i * bcols;
    zero_row(o, bcols);
    for (std::size_t k = 0; k < acols; ++k) {
      row_axpy(ar[k], b + k * bcols, bcols, o);
    }
  }
}

void spmv_add(const CsrView& a, const double* x, double* out) {
  std::size_t i = 0;
  if (a.slab_val != nullptr) {
    // SELL-4 slabs: 4 rows per slab, one accumulator lane per row. Each
    // k-step multiplies 4 stored values against gathered x entries and
    // folds them in with a masked blend, so a lane's accumulator bits
    // change only for its own row's real entries — in CSR order.
    const std::size_t slabs = a.rows / 4;
    // Padded lanes contribute an addend of -0.0, the bitwise identity of
    // IEEE addition (x + -0.0 == x for every x, including +/-0.0), so the
    // blendv sits on the *addend*, off the accumulator's loop-carried
    // add chain — the chain is one vaddpd per k-step, and independent
    // slab chains overlap in the out-of-order window.
    // Contiguity-tagged k-steps (slab_base[t] >= 0: four real entries
    // with consecutive columns — every interior slab of a stencil mesh)
    // read x with one contiguous unaligned load; lane r still computes
    // val[r] * x[base + r], the same product the gather would feed it.
    const __m256d minus_zero = _mm256_set1_pd(-0.0);
    const auto kstep = [&](std::uint64_t t) {
      const __m256d v = _mm256_loadu_pd(a.slab_val + 4 * t);
      const std::int64_t base = a.slab_base[t];
      if (base >= 0) {
        return _mm256_mul_pd(v, _mm256_loadu_pd(x + base));
      }
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a.slab_idx + 4 * t));
      const __m256d xg = _mm256_i64gather_pd(x, idx, 8);
      const __m256d mask = _mm256_castsi256_pd(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a.slab_mask + 4 * t)));
      return _mm256_blendv_pd(minus_zero, _mm256_mul_pd(v, xg), mask);
    };
    // Two slabs in flight: their accumulator chains belong to different
    // rows, so interleaving them halves the effective vaddpd latency per
    // k-step without reassociating any row's sum (each lane still folds
    // its own entries in ascending k).
    std::size_t s = 0;
    for (; s + 2 <= slabs; s += 2, i += 8) {
      std::uint64_t ta = a.slab_ptr[s];
      const std::uint64_t ea = a.slab_ptr[s + 1];
      std::uint64_t tb = ea;
      const std::uint64_t eb = a.slab_ptr[s + 2];
      __m256d acc_a = _mm256_setzero_pd();
      __m256d acc_b = _mm256_setzero_pd();
      while (ta < ea && tb < eb) {
        acc_a = _mm256_add_pd(acc_a, kstep(ta++));
        acc_b = _mm256_add_pd(acc_b, kstep(tb++));
      }
      for (; ta < ea; ++ta) acc_a = _mm256_add_pd(acc_a, kstep(ta));
      for (; tb < eb; ++tb) acc_b = _mm256_add_pd(acc_b, kstep(tb));
      _mm256_storeu_pd(out + i,
                       _mm256_add_pd(_mm256_loadu_pd(out + i), acc_a));
      _mm256_storeu_pd(out + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(out + i + 4), acc_b));
    }
    for (; s < slabs; ++s, i += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::uint64_t t = a.slab_ptr[s]; t < a.slab_ptr[s + 1]; ++t) {
        acc = _mm256_add_pd(acc, kstep(t));
      }
      _mm256_storeu_pd(out + i,
                       _mm256_add_pd(_mm256_loadu_pd(out + i), acc));
    }
  }
  for (; i < a.rows; ++i) {
    double acc = 0.0;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      acc += a.val[k] * x[a.col[k]];
    }
    out[i] += acc;
  }
}

void spmm_add(const CsrView& a, const double* b, std::size_t bcols,
              double* out) {
  for (std::size_t i = 0; i < a.rows; ++i) {
    double* o = out + i * bcols;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      row_axpy(a.val[k], b + a.col[k] * bcols, bcols, o);
    }
  }
}

void spmm_raw(const CsrView& a, const double* b, std::size_t bcols,
              double* out) {
  for (std::size_t i = 0; i < a.rows; ++i) {
    double* o = out + i * bcols;
    zero_row(o, bcols);
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      row_axpy(a.val[k], b + a.col[k] * bcols, bcols, o);
    }
  }
}

namespace {

/// Calls f(std::integral_constant<std::size_t, I>{}) for I = 0..N-1,
/// unrolled at compile time so every index below is a constant.
template <std::size_t N, typename F>
inline void static_for(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// Lane mask selecting the leading `valid` (1..3) lanes.
template <std::size_t valid>
inline __m256i leading_lanes() noexcept {
  return _mm256_setr_epi64x(-1, valid > 1 ? -1 : 0, valid > 2 ? -1 : 0, 0);
}

/// Loads the `valid` leading lanes of p[0..4) (the rest read as 0.0)
/// without touching memory past p[valid - 1].
template <std::size_t valid>
inline __m256d load_lanes(const double* p) noexcept {
  if constexpr (valid >= 4) {
    return _mm256_loadu_pd(p);
  } else {
    return _mm256_maskload_pd(p, leading_lanes<valid>());
  }
}

/// Stores the `valid` leading lanes of v to p[0..valid).
template <std::size_t valid>
inline void store_lanes(double* p, __m256d v) noexcept {
  if constexpr (valid >= 4) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, leading_lanes<valid>(), v);
  }
}

/// Register layout of the narrow Gram kernel for `Cols` columns: output
/// row i's upper-triangle segment out[i][i..Cols) is held in
/// chunks(i) = ceil((Cols - i) / 4) accumulators, chunk c covering columns
/// i + 4c .. i + 4c + 3 (lanes at or past Cols are never loaded from or
/// stored to memory). Row i's chunks start at accumulator first(i).
template <std::size_t Cols>
struct NarrowGramLayout {
  static constexpr std::size_t chunks(std::size_t i) {
    return (Cols - i + 3) / 4;
  }
  static constexpr std::size_t first(std::size_t i) {
    std::size_t n = 0;
    for (std::size_t r = 0; r < i; ++r) n += chunks(r);
    return n;
  }
  static constexpr std::size_t valid(std::size_t i, std::size_t c) {
    return Cols - (i + 4 * c) < 4 ? Cols - (i + 4 * c) : 4;
  }
  static constexpr std::size_t kAccumulators = first(Cols);
};

/// Narrow Gram: the whole upper triangle stays in YMM accumulators (spilled
/// to the stack only past the register file) for the entire row sweep, so
/// the output is loaded and stored once per call instead of once per input
/// row. Each lane still replays the scalar sequence for its element —
/// out[i][j] + (w_k a_ki) * a_kj as separate mul and add, in ascending k,
/// with the same w_k == 0 and w_k a_ki == 0 skips (a skip leaves the
/// accumulator untouched, exactly like scalar's `continue`).
template <std::size_t Cols>
void gram_narrow(const double* a, std::size_t rows, const double* w,
                 double* out) {
  using L = NarrowGramLayout<Cols>;
  __m256d acc[L::kAccumulators];
  static_for<Cols>([&](auto i) {
    static_for<L::chunks(i)>([&](auto c) {
      acc[L::first(i) + c] =
          load_lanes<L::valid(i, c)>(out + i * Cols + i + 4 * c);
    });
  });
  for (std::size_t k = 0; k < rows; ++k) {
    const double* r = a + k * Cols;
    const double wk = w[k];
    if (wk == 0.0) continue;
    static_for<Cols>([&](auto i) {
      const double wri = wk * r[i];
      if (wri == 0.0) return;
      const __m256d vw = _mm256_set1_pd(wri);
      static_for<L::chunks(i)>([&](auto c) {
        const __m256d rj = load_lanes<L::valid(i, c)>(r + i + 4 * c);
        __m256d& lane = acc[L::first(i) + c];
        lane = _mm256_add_pd(lane, _mm256_mul_pd(vw, rj));
      });
    });
  }
  static_for<Cols>([&](auto i) {
    static_for<L::chunks(i)>([&](auto c) {
      store_lanes<L::valid(i, c)>(out + i * Cols + i + 4 * c,
                                  acc[L::first(i) + c]);
    });
  });
}

using GramFn = void (*)(const double*, std::size_t, const double*, double*);

/// gram_narrow<1> .. gram_narrow<kAvx2NarrowGramCols>, indexed by cols - 1.
template <std::size_t... I>
constexpr std::array<GramFn, sizeof...(I)> narrow_gram_table(
    std::index_sequence<I...>) {
  return {&gram_narrow<I + 1>...};
}

/// Wide Gram: accumulates the upper triangle of out (no mirror).
void gram_tiled(const double* a, std::size_t rows, std::size_t cols,
                const double* w, double* out) {
  // Tiled over output rows i: each output element out[i][j] still
  // accumulates its w_k (a_ki a_kj) terms in ascending k — the scalar
  // sequence — but a tile of output rows stays cache-resident across the
  // whole k sweep instead of streaming the full upper triangle once per
  // input row (which is what makes the untiled form memory-bound at
  // manycore problem sizes). A is re-read once per tile; it streams well.
  constexpr std::size_t kTile = 64;
  for (std::size_t i0 = 0; i0 < cols; i0 += kTile) {
    const std::size_t i1 = i0 + kTile < cols ? i0 + kTile : cols;
    std::size_t k = 0;
    // Four input rows per sweep of the output tile: out[i][j] folds the
    // (up to) four addends in ascending k — exactly the scalar sequence,
    // including its wk == 0 / wri == 0 skips — while touching each out
    // element once per chunk instead of once per k.
    for (; k + 4 <= rows; k += 4) {
      const double* kr[4] = {a + k * cols, a + (k + 1) * cols,
                             a + (k + 2) * cols, a + (k + 3) * cols};
      const double kw[4] = {w[k], w[k + 1], w[k + 2], w[k + 3]};
      if (kw[0] == 0.0 && kw[1] == 0.0 && kw[2] == 0.0 && kw[3] == 0.0) {
        continue;
      }
      for (std::size_t i = i0; i < i1; ++i) {
        const double* rs[4];
        double ws[4];
        std::size_t cnt = 0;
        for (std::size_t c = 0; c < 4; ++c) {
          if (kw[c] == 0.0) continue;
          const double wri = kw[c] * kr[c][i];
          if (wri == 0.0) continue;
          ws[cnt] = wri;
          rs[cnt] = kr[c] + i;
          ++cnt;
        }
        double* o = out + i * cols + i;
        if (cnt == 4) {
          row_axpy4(ws, rs, cols - i, o);
        } else {
          for (std::size_t c = 0; c < cnt; ++c) {
            row_axpy(ws[c], rs[c], cols - i, o);
          }
        }
      }
    }
    for (; k < rows; ++k) {
      const double* r = a + k * cols;
      const double wk = w[k];
      if (wk == 0.0) continue;
      for (std::size_t i = i0; i < i1; ++i) {
        const double wri = wk * r[i];
        if (wri == 0.0) continue;
        row_axpy(wri, r + i, cols - i, out + i * cols + i);
      }
    }
  }
}

}  // namespace

void gram_weighted(const double* a, std::size_t rows, std::size_t cols,
                   const double* w, double* out) {
  static constexpr auto kNarrow =
      narrow_gram_table(std::make_index_sequence<kAvx2NarrowGramCols>{});
  if (cols >= 1 && cols <= kAvx2NarrowGramCols) {
    kNarrow[cols - 1](a, rows, w, out);
  } else {
    gram_tiled(a, rows, cols, w, out);
  }
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = i + 1; j < cols; ++j) {
      out[j * cols + i] = out[i * cols + j];
    }
  }
}

void axpy(std::size_t n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(x + i), va);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double dot(std::size_t n, const double* x, const double* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double sumsq(std::size_t n, const double* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

double neg_dot_from(double init, std::size_t n, const double* x,
                    const double* y) {
  return init - dot(n, x, y);
}

}  // namespace avx2

const KernelOps* avx2_ops() noexcept {
  static constexpr KernelOps ops = {
      avx2::matvec_add, avx2::matvec_t_add, avx2::mm_raw,
      avx2::spmv_add,   avx2::spmm_add,     avx2::spmm_raw,
      avx2::gram_weighted, avx2::axpy,
      avx2::dot, avx2::sumsq, avx2::neg_dot_from,
  };
  return &ops;
}

}  // namespace protemp::linalg::kernels

#else  // !(__AVX2__ && __FMA__): non-x86 or toolchain without AVX2 flags.

namespace protemp::linalg::kernels {

const KernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace protemp::linalg::kernels

#endif
