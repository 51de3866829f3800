// Micro-kernel benchmarks: the dispatched kernel layer, scalar vs SIMD.
//
// Times every kernel-layer operation (DESIGN.md §9) under both the scalar
// reference table and the dispatched (CPUID-selected) table, at problem
// shapes derived from 16/64/256-core platforms:
//
//   * spmv        — RC-mesh conductance SpMV (SELL-4 slabs), dim ~ nodes
//   * step        — dense transient step matvec, dim ~ nodes
//   * gram        — G^T diag(w) G constraint fold, cores variables; plus
//                   gram_paper, the niagara8 MPC program's 3417 x 9 shape
//                   (reported, not gated)
//   * cholesky    — dense factor (neg_dot_from inner chains), cores vars
//   * axpy / dot  — vector primitives at horizon length
//
//   ./bench_micro_kernels [--smoke] [--reps=N] [--gate=2.0]
//                         [--stats-out=path]
//
// Emits BENCH_micro_kernels.json. Gates: dispatched SpMV and gram_weighted
// must be >= `gate`x (default 2x) faster than scalar at 256 cores. On
// hardware without AVX2+FMA the dispatched table *is* the scalar table, so
// the gates auto-skip (pass, speedup reported as 1x) with the rationale in
// the kernel_backend info entry.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/sparse.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace protemp;
using linalg::Matrix;
using linalg::SparseBuilder;
using linalg::SparseMatrix;
using linalg::Vector;
using linalg::kernels::KernelBackend;
using linalg::kernels::KernelOps;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `body` (called once per iteration): best mean-ns-per-call over
/// `reps` repetitions of a batch sized to take roughly a millisecond.
template <typename F>
double best_ns(std::size_t reps, std::size_t batch, F&& body) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const double start = now_seconds();
    for (std::size_t i = 0; i < batch; ++i) body();
    const double ns =
        (now_seconds() - start) * 1e9 / static_cast<double>(batch);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// RC-mesh-style conductance pattern: 5-point grid Laplacian over `n`
/// nodes (the SpMV shape thermal networks produce), ~5 nnz/row.
SparseMatrix mesh_laplacian(std::size_t n) {
  const auto side = static_cast<std::size_t>(std::lround(std::sqrt(
      static_cast<double>(n))));
  const std::size_t rows = std::max<std::size_t>(1, side);
  const std::size_t cols = (n + rows - 1) / rows;
  SparseBuilder builder(n, n);
  const auto node = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = node(r, c);
      if (i >= n) continue;
      double degree = 0.1;  // ambient leak
      const auto couple = [&](std::size_t j) {
        if (j >= n) return;
        builder.add(i, j, -1.0);
        degree += 1.0;
      };
      if (r > 0) couple(node(r - 1, c));
      if (c > 0) couple(node(r, c - 1));
      if (r + 1 < rows) couple(node(r + 1, c));
      if (c + 1 < cols) couple(node(r, c + 1));
      builder.add(i, i, degree);
    }
  }
  return builder.build();
}

struct KernelTiming {
  std::string kernel;
  std::string shape;  ///< core count, or "paper" (key suffix + table cell)
  double scalar_ns = 0.0;
  double dispatch_ns = 0.0;
  double speedup() const { return scalar_ns / dispatch_ns; }
};

/// Per-shape working set; each timing closure runs the same operation
/// through one explicit backend table.
struct ShapeFixture {
  std::size_t cores;
  SparseMatrix mesh;        // cores*4 thermal nodes
  Matrix dense_step;        // nodes x nodes transient step matrix
  Matrix g;                 // 4*cores constraints x cores variables
  Vector w;                 // constraint weights
  Matrix spd;               // cores x cores SPD (Cholesky input)
  Vector x_nodes, y_nodes;  // node-sized vectors
  Vector x_vars;            // variable-sized vector
  Matrix gram_out;
  Vector step_out;

  explicit ShapeFixture(std::size_t cores_in) : cores(cores_in) {
    util::Rng rng(2008 + cores);
    const std::size_t nodes = 4 * cores;  // cores + caches/crossbar blocks
    mesh = mesh_laplacian(nodes);
    dense_step = Matrix(nodes, nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t j = 0; j < nodes; ++j) {
        dense_step(i, j) = rng.normal() * 0.01;
      }
    }
    g = Matrix(4 * cores, cores);
    w = Vector(4 * cores);
    for (std::size_t i = 0; i < 4 * cores; ++i) {
      for (std::size_t j = 0; j < cores; ++j) g(i, j) = rng.normal();
      w[i] = rng.uniform(0.1, 2.0);
    }
    spd = Matrix(cores, cores);
    for (std::size_t i = 0; i < cores; ++i) {
      for (std::size_t j = 0; j < cores; ++j) spd(i, j) = rng.normal();
    }
    spd = spd.transposed() * spd;
    for (std::size_t i = 0; i < cores; ++i) {
      spd(i, i) += static_cast<double>(cores);
    }
    x_nodes = Vector(nodes);
    y_nodes = Vector(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      x_nodes[i] = rng.normal();
      y_nodes[i] = rng.normal();
    }
    x_vars = Vector(cores);
    for (std::size_t i = 0; i < cores; ++i) x_vars[i] = rng.normal();
  }
};

/// The niagara8 Newton system at the paper configuration: 3417 rows x 9
/// variables (8 sigma + tgrad) — 2000 temperature rows dense in sigma,
/// 1400 gradient rows that also carry -1 on tgrad, 17 single-nonzero bound
/// rows. This is the shape the online MPC folds on every Newton step.
struct PaperGramFixture {
  Matrix g = Matrix(3417, 9);
  Vector w = Vector(3417);
  Matrix out;

  PaperGramFixture() {
    util::Rng rng(2008);
    for (std::size_t i = 0; i < 3400; ++i) {
      for (std::size_t j = 0; j < 8; ++j) g(i, j) = rng.normal();
      if (i >= 2000) g(i, 8) = -1.0;
    }
    for (std::size_t i = 3400; i < 3417; ++i) {
      g(i, (i - 3400) % 9) = i % 2 == 0 ? 1.0 : -1.0;
    }
    for (std::size_t i = 0; i < 3417; ++i) w[i] = rng.uniform(0.1, 2.0);
  }
};

double time_paper_gram(PaperGramFixture& fx, KernelBackend backend,
                       std::size_t reps) {
  linalg::kernels::force_kernel_backend(backend);
  const double ns =
      best_ns(reps, 20, [&] { fx.g.gram_weighted_into(fx.w, fx.out); });
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);
  return ns;
}

/// Times one kernel under an explicitly forced backend. Kernels are
/// exercised through the public linalg entry points so the measurement
/// includes exactly what the solver hot path pays.
double time_kernel(const std::string& kernel, ShapeFixture& fx,
                   KernelBackend backend, std::size_t reps) {
  linalg::kernels::force_kernel_backend(backend);
  const std::size_t nodes = 4 * fx.cores;
  // Batches sized so one batch is ~0.1-1 ms at 256 cores.
  double ns = 0.0;
  if (kernel == "spmv") {
    fx.step_out.resize(nodes);
    ns = best_ns(reps, 2000, [&] {
      fx.mesh.multiply_add_into(fx.x_nodes, fx.step_out);
    });
  } else if (kernel == "step") {
    fx.step_out.resize(nodes);
    ns = best_ns(reps, 200, [&] {
      fx.dense_step.multiply_add_into(fx.x_nodes, fx.step_out);
    });
  } else if (kernel == "gram") {
    ns = best_ns(reps, 20, [&] {
      fx.g.gram_weighted_into(fx.w, fx.gram_out);
    });
  } else if (kernel == "cholesky") {
    ns = best_ns(reps, 20, [&] {
      auto chol = linalg::Cholesky::factor(fx.spd);
      if (!chol) std::abort();
    });
  } else if (kernel == "axpy") {
    ns = best_ns(reps, 4000, [&] { fx.y_nodes.axpy(1e-9, fx.x_nodes); });
  } else if (kernel == "dot") {
    double sink = 0.0;
    ns = best_ns(reps, 4000, [&] { sink += fx.x_nodes.dot(fx.y_nodes); });
    if (!std::isfinite(sink)) std::abort();
  } else {
    std::abort();
  }
  linalg::kernels::force_kernel_backend(KernelBackend::kAuto);
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::CliArgs args(argc, argv);
    const bool smoke = args.get_bool("smoke", false);
    const auto reps =
        static_cast<std::size_t>(args.get_int("reps", smoke ? 3 : 7));
    const double gate = args.get_double("gate", 2.0);
    const std::string stats_out = args.get_string("stats-out", "");
    args.check_unknown();

    const KernelBackend dispatched = linalg::kernels::active_backend();
    const bool simd = dispatched != KernelBackend::kScalar;
    std::printf("# kernel-layer micro benchmarks (dispatched backend: %s, "
                "%s mode)\n",
                linalg::kernels::to_string(dispatched),
                smoke ? "smoke" : "full");

    const std::size_t core_counts[] = {16, 64, 256};
    const char* kernels[] = {"spmv", "step", "gram", "cholesky", "axpy",
                             "dot"};
    std::vector<KernelTiming> timings;
    for (const std::size_t cores : core_counts) {
      ShapeFixture fx(cores);
      for (const char* kernel : kernels) {
        KernelTiming t;
        t.kernel = kernel;
        t.shape = std::to_string(cores);
        t.scalar_ns = time_kernel(kernel, fx, KernelBackend::kScalar, reps);
        // "Dispatched" = whatever auto resolves to; on scalar-only
        // hardware this re-times scalar and the speedup is ~1.
        t.dispatch_ns = time_kernel(kernel, fx, KernelBackend::kAuto, reps);
        timings.push_back(t);
      }
    }
    {
      PaperGramFixture fx;
      KernelTiming t;
      t.kernel = "gram";
      t.shape = "paper";
      t.scalar_ns = time_paper_gram(fx, KernelBackend::kScalar, reps);
      t.dispatch_ns = time_paper_gram(fx, KernelBackend::kAuto, reps);
      timings.push_back(t);
    }

    util::AsciiTable table(
        {"kernel", "cores", "scalar [ns]", "dispatch [ns]", "speedup"});
    for (const KernelTiming& t : timings) {
      table.add_row({t.kernel, t.shape,
                     util::format_fixed(t.scalar_ns, 0),
                     util::format_fixed(t.dispatch_ns, 0),
                     util::format("%.2fx", t.speedup())});
    }
    table.render(std::cout, "kernel timings (scalar vs dispatched)");

    bench::begin_csv("micro_kernels");
    util::CsvWriter csv(std::cout);
    csv.header({"kernel", "cores", "scalar_ns", "dispatch_ns", "speedup"});
    for (const KernelTiming& t : timings) {
      csv.row({t.kernel, t.shape,
               util::format("%.1f", t.scalar_ns),
               util::format("%.1f", t.dispatch_ns),
               util::format("%.3f", t.speedup())});
    }
    bench::end_csv();

    bench::JsonReporter json("micro_kernels");
    json.add_info("kernel_backend", linalg::kernels::to_string(dispatched));
    bool all_pass = true;
    for (const KernelTiming& t : timings) {
      const std::string base =
          t.kernel + "_" + t.shape + (t.shape == "paper" ? "" : "c");
      json.add_metric(base + "_scalar", t.scalar_ns, "ns");
      json.add_metric(base + "_dispatch", t.dispatch_ns, "ns");
      const bool gated = t.shape == "256" &&
                         (t.kernel == "spmv" || t.kernel == "gram");
      if (gated && simd) {
        const bool pass = t.speedup() >= gate;
        all_pass = all_pass && pass;
        json.add_gated_metric(base + "_speedup", t.speedup(), "x",
                              util::format(">= %.2fx", gate), pass);
        std::printf("%s dispatched speedup %.2fx (bar: %.2fx): %s\n",
                    base.c_str(), t.speedup(), gate,
                    pass ? "PASS" : "FAIL");
      } else if (gated) {
        // Gate auto-skips on scalar dispatch, but keeps the gated shape so
        // stats files compare structurally across machines and forced-
        // scalar runs (the verdict is vacuously true: scalar vs scalar).
        json.add_gated_metric(base + "_speedup", t.speedup(), "x",
                              "skipped: scalar dispatch", true);
      } else {
        json.add_metric(base + "_speedup", t.speedup(), "x");
      }
    }
    if (!simd) {
      std::printf("speedup gates skipped: CPUID lacks AVX2+FMA, dispatched "
                  "backend is scalar (speedups ~1x by construction)\n");
    }
    json.write();
    if (!stats_out.empty()) json.write_stats(stats_out);
    return all_pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
