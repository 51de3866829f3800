// Kernel layer: the hot inner loops of linalg behind runtime dispatch.
//
// Two backends implement the same operation table:
//
//   * scalar — the bitwise reference. Every loop is the exact historical
//     Matrix/Vector/SparseMatrix/Cholesky inner loop, so forcing this
//     backend reproduces every golden trace and stats file bit for bit.
//   * avx2 — AVX2/FMA, selected at startup when CPUID reports both avx2
//     and fma (overridable, see below).
//
// The table is split into two numeric classes (DESIGN.md §9):
//
//   * Class A (matvec_add, matvec_t_add, mm_raw, spmv_add, spmm_add,
//     spmm_raw, gram_weighted, axpy): bitwise-exact across backends. The
//     AVX2 forms vectorize only across *independent outputs* (4 rows of a
//     SpMV slab, 4 columns of an output row) with separate mul+add — never
//     FMA — so each output element sees exactly the scalar backend's
//     addition sequence. This is what keeps the dense<->sparse bitwise
//     contract (sparse.hpp) intact under SIMD.
//   * Class B (dot, sumsq, neg_dot_from): FMA multi-accumulator
//     reductions. Reassociating a single reduction chain is the whole
//     speedup, so these legitimately differ from scalar in the last ~2
//     ulps per accumulated term (tested at 1e-13 relative). Each backend
//     is individually deterministic.
//
// Backend selection: resolved once, on first use.
//   1. force_kernel_backend() (tests/benches), else
//   2. PROTEMP_KERNEL_BACKEND=scalar|avx2|auto, else
//   3. auto: avx2 iff the CPU supports AVX2+FMA, scalar otherwise.
// Requesting avx2 on hardware without it falls back to scalar (logged).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace protemp::linalg::kernels {

/// Which kernel table to run. kAuto resolves at startup via CPUID;
/// kScalar/kAvx2 force a table (mirrors linalg::MatrixBackend).
enum class KernelBackend { kAuto, kScalar, kAvx2 };

const char* to_string(KernelBackend backend) noexcept;
/// Parses "auto" / "scalar" / "avx2" (env / spec form); nullopt otherwise.
std::optional<KernelBackend> parse_kernel_backend(
    std::string_view text) noexcept;

/// True iff the running CPU reports AVX2 and FMA (false off-x86).
bool cpu_supports_avx2() noexcept;

/// Column counts up to this take the AVX2 backend's register-resident
/// narrow gram_weighted path; wider systems take the tiled path. Set by
/// measurement: the narrow path wins up to ~48 columns, but its code
/// doubles with every 8 columns of cutoff (DESIGN.md §9).
inline constexpr std::size_t kAvx2NarrowGramCols = 24;

/// Read-only view of a CSR matrix plus its optional SELL-4 slab mirror
/// (built by SparseMatrix; slab pointers null when absent, in which case
/// SIMD backends fall back to the CSR arrays).
///
/// Slab layout: rows are grouped 4 at a time ("slab" s covers rows
/// 4s..4s+3; the rows % 4 remainder is handled row-by-row from the CSR
/// arrays). Slab s owns k-steps [slab_ptr[s], slab_ptr[s+1]); k-step t
/// stores lane-interleaved groups of 4 at offset 4t: slab_val (entry
/// values, 0.0 padding), slab_idx (column indices, 0 padding) and
/// slab_mask (~0 for a real entry, 0 for padding — blendv operand, so a
/// padded lane's accumulator bits are never touched, preserving -0.0).
/// Lane r of slab s replays row 4s+r's stored entries in CSR order.
///
/// slab_base is the structured-mesh fast path: slab_base[t] >= 0 means
/// k-step t has four real entries whose columns are consecutive
/// (slab_idx[4t+r] == slab_base[t] + r), so x can be read with one
/// contiguous unaligned load instead of a gather and no mask is needed.
/// Stencil meshes (the RC-network conductance pattern) hit this on every
/// interior slab; -1 falls back to the gather+blend path.
struct CsrView {
  const std::size_t* row_ptr = nullptr;  ///< rows+1 offsets
  const std::size_t* col = nullptr;
  const double* val = nullptr;
  std::size_t rows = 0;

  const double* slab_val = nullptr;
  const std::uint64_t* slab_idx = nullptr;
  const std::uint64_t* slab_mask = nullptr;
  const std::uint64_t* slab_ptr = nullptr;  ///< rows/4 + 1 k-step offsets
  const std::int64_t* slab_base = nullptr;  ///< per k-step contiguity tag
};

/// The dispatched operation table. All pointers are raw storage; shape
/// checks stay with the owning linalg types.
struct KernelOps {
  // -- Class A: bitwise-exact across backends ---------------------------

  /// out[i] += sum_j a[i*cols+j] * x[j], each row's sum accumulated left
  /// to right (Matrix::multiply_add_into).
  void (*matvec_add)(const double* a, std::size_t rows, std::size_t cols,
                     const double* x, double* out);
  /// out[j] += a[i*cols+j] * x[i] over rows i in order, skipping
  /// x[i] == 0.0 rows (Matrix::multiply_transposed_add_into).
  void (*matvec_t_add)(const double* a, std::size_t rows, std::size_t cols,
                       const double* x, double* out);
  /// C = A * B over row-major raw blocks: out (rows x bcols) is zeroed
  /// then accumulated in i-k-j order (Matrix::multiply_raw).
  void (*mm_raw)(const double* a, std::size_t rows, std::size_t acols,
                 const double* b, std::size_t bcols, double* out);
  /// out[i] += row_i(A) . x for CSR A, entries in stored (ascending
  /// column) order (SparseMatrix::multiply_add_into).
  void (*spmv_add)(const CsrView& a, const double* x, double* out);
  /// out (rows x bcols, pre-zeroed) += A * B in i-k-j order
  /// (SparseMatrix::multiply_dense_into body).
  void (*spmm_add)(const CsrView& a, const double* b, std::size_t bcols,
                   double* out);
  /// Raw-block SpMM: zeroes each output row then accumulates
  /// (SparseMatrix::multiply_raw).
  void (*spmm_raw)(const CsrView& a, const double* b, std::size_t bcols,
                   double* out);
  /// out (cols x cols, pre-zeroed) = A^T diag(w) A, upper triangle
  /// accumulated in row order with the w==0 / w*r_i==0 skips, then
  /// mirrored (Matrix::gram_weighted_into). AVX2 keeps the upper triangle
  /// in YMM accumulators across the row sweep for cols <=
  /// kAvx2NarrowGramCols (the barrier's Newton systems: 9 columns on the
  /// niagara8 program, 10 in phase-I) and tiles the output rows above
  /// that; both replay the scalar sequence per element (DESIGN.md §9).
  void (*gram_weighted)(const double* a, std::size_t rows, std::size_t cols,
                        const double* w, double* out);
  /// y[i] += alpha * x[i] (Vector::axpy).
  void (*axpy)(std::size_t n, double alpha, const double* x, double* y);

  // -- Class B: FMA reductions, ulp-level backend differences -----------

  /// sum_i x[i] * y[i] (Vector::dot).
  double (*dot)(std::size_t n, const double* x, const double* y);
  /// sum_i x[i]^2 (Vector::norm2 before the sqrt).
  double (*sumsq)(std::size_t n, const double* x);
  /// init - sum_i x[i] * y[i] — the Cholesky factor/solve inner loop
  /// (scalar: sequential subtracts, exactly the historical code).
  double (*neg_dot_from)(double init, std::size_t n, const double* x,
                         const double* y);
};

/// Backend tables (scalar always available; avx2 null off-x86 builds).
const KernelOps& scalar_ops() noexcept;
const KernelOps* avx2_ops() noexcept;

/// The active table. Resolution happens on first call (see file comment);
/// afterwards this is one atomic load.
const KernelOps& active() noexcept;
/// The backend `active()` resolves to (kScalar or kAvx2, never kAuto).
KernelBackend active_backend() noexcept;

/// Overrides the active backend at runtime (tests/benches). kAuto
/// re-resolves from the environment + CPUID. Not thread-safe against
/// concurrent kernel *users* mid-operation; call between solves.
void force_kernel_backend(KernelBackend backend) noexcept;

}  // namespace protemp::linalg::kernels
