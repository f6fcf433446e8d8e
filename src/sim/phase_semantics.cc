#include "sim/phase_semantics.h"

#include <cmath>

#include "util/common.h"
#include "util/logging.h"
#include "util/simd.h"

namespace azul::phase {

namespace {

/** Givens least squares over the GMRES Hessenberg block. */
double
GmresLsq(const HostOp& op, std::vector<double>& bank)
{
    const Index m = op.restart;
    const auto h_at = [&](Index i, Index j) -> double& {
        return bank[static_cast<std::size_t>(op.h_offset) +
                    static_cast<std::size_t>(j * (m + 1) + i)];
    };

    // Working copies: the QR factors R (overwriting a local H copy)
    // and the rotated right-hand side g = (beta, 0, ..., 0)^T.
    std::vector<double> r(static_cast<std::size_t>(m * (m + 1)));
    for (Index j = 0; j < m; ++j) {
        for (Index i = 0; i <= j + 1; ++i) {
            r[static_cast<std::size_t>(j * (m + 1) + i)] = h_at(i, j);
        }
    }
    std::vector<double> g(static_cast<std::size_t>(m) + 1, 0.0);
    g[0] = bank[static_cast<std::size_t>(op.beta_offset)];

    std::vector<double> cs(static_cast<std::size_t>(m), 1.0);
    std::vector<double> sn(static_cast<std::size_t>(m), 0.0);
    const auto r_at = [&](Index i, Index j) -> double& {
        return r[static_cast<std::size_t>(j * (m + 1) + i)];
    };
    for (Index k = 0; k < m; ++k) {
        // Apply previous rotations to column k.
        for (Index i = 0; i < k; ++i) {
            const double tmp = cs[static_cast<std::size_t>(i)] *
                                   r_at(i, k) +
                               sn[static_cast<std::size_t>(i)] *
                                   r_at(i + 1, k);
            r_at(i + 1, k) = -sn[static_cast<std::size_t>(i)] *
                                 r_at(i, k) +
                             cs[static_cast<std::size_t>(i)] *
                                 r_at(i + 1, k);
            r_at(i, k) = tmp;
        }
        // New rotation annihilating the subdiagonal. A zero column
        // pair (lucky breakdown upstream) keeps the identity
        // rotation, leaving g — and the residual estimate — intact.
        const double a = r_at(k, k);
        const double b = r_at(k + 1, k);
        const double denom = std::sqrt(a * a + b * b);
        double ck = 1.0;
        double sk = 0.0;
        if (denom != 0.0) {
            ck = a / denom;
            sk = b / denom;
        }
        cs[static_cast<std::size_t>(k)] = ck;
        sn[static_cast<std::size_t>(k)] = sk;
        r_at(k, k) = ck * a + sk * b;
        r_at(k + 1, k) = 0.0;
        const double gk = g[static_cast<std::size_t>(k)];
        g[static_cast<std::size_t>(k)] = ck * gk;
        g[static_cast<std::size_t>(k) + 1] = -sk * gk;
    }

    // Back-substitution; a zero diagonal (breakdown column) yields
    // y_i = 0, matching the zeroed basis vector it scales.
    std::vector<double> y(static_cast<std::size_t>(m), 0.0);
    for (Index i = m - 1; i >= 0; --i) {
        double sum = g[static_cast<std::size_t>(i)];
        for (Index j = i + 1; j < m; ++j) {
            sum -= r_at(i, j) * y[static_cast<std::size_t>(j)];
        }
        const double diag = r_at(i, i);
        y[static_cast<std::size_t>(i)] = diag != 0.0 ? sum / diag : 0.0;
    }
    for (Index i = 0; i < m; ++i) {
        bank[static_cast<std::size_t>(op.y_offset) +
             static_cast<std::size_t>(i)] =
            y[static_cast<std::size_t>(i)];
    }
    return std::abs(g[static_cast<std::size_t>(m)]);
}

} // namespace

double
ElementwiseScale(const VectorKernel& kernel, const double* regs,
                 const double* bank)
{
    const double base =
        kernel.scale_bank >= 0 ? bank[kernel.scale_bank]
        : kernel.use_const_scale
            ? kernel.const_scale
            : regs[static_cast<std::size_t>(kernel.scale_reg)];
    const double s = kernel.scale_sign * base;
    if (kernel.op == VecOpKind::kScale && kernel.scale_invert) {
        return s == 0.0 ? 0.0 : 1.0 / s;
    }
    return s;
}

PhaseCost
Elementwise(const VectorKernel& kernel, double scale, double* dst,
            const double* a, const double* b, const double* inv_diag,
            std::size_t n)
{
    PhaseCost cost;
    switch (kernel.op) {
      case VecOpKind::kAxpy:
        simd::Axpy(dst, a, scale, n);
        cost.ops.fmac = n;
        break;
      case VecOpKind::kXpby:
        simd::Xpby(dst, a, scale, n);
        cost.ops.fmac = n;
        break;
      case VecOpKind::kSub:
        simd::Sub(dst, a, b, n);
        cost.ops.add = n;
        break;
      case VecOpKind::kCopy:
        simd::Copy(dst, a, n);
        cost.ops.mul = n;
        break;
      case VecOpKind::kDiagScale:
        simd::Mul(dst, a, inv_diag, n);
        cost.ops.mul = n;
        break;
      case VecOpKind::kScale:
        simd::Scale(dst, a, scale, n);
        cost.ops.mul = n;
        break;
      default:
        throw AzulError("bad elementwise kernel");
    }
    cost.sram_reads = 2 * n;
    cost.sram_writes = n;
    return cost;
}

PhaseCost
DotPartial(const double* a, const double* b, std::size_t n,
           double& partial)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += a[i] * b[i];
    }
    partial = acc;
    PhaseCost cost;
    cost.ops.fmac = n;
    cost.sram_reads = 2 * n;
    return cost;
}

double
FoldPartials(const double* partials, std::size_t n)
{
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        dot += partials[i];
    }
    return dot;
}

RootWork
DotRoot(const VectorKernel& kernel, double dot, double* regs,
        double* bank)
{
    const auto reg = [regs](ScalarReg r) -> double& {
        return regs[static_cast<std::size_t>(r)];
    };
    RootWork work;
    work.broadcast_values = 0;
    const double result = kernel.post_sqrt ? std::sqrt(dot) : dot;
    if (kernel.post_sqrt) {
        ++work.divides;
    }
    if (kernel.dot_out != ScalarReg::kCount) {
        reg(kernel.dot_out) = result;
        ++work.broadcast_values;
    }
    if (kernel.dot_out_bank >= 0) {
        bank[kernel.dot_out_bank] = result;
        ++work.broadcast_values;
    }
    if (work.broadcast_values == 0) {
        work.broadcast_values = 1;
    }
    if (kernel.post_divide) {
        const double num = reg(kernel.div_num);
        reg(kernel.div_out) =
            kernel.divide_dot_by_num ? dot / num : num / dot;
        ++work.divides;
        ++work.broadcast_values;
    }
    if (kernel.copy_dot_to) {
        reg(kernel.dot_copy_reg) = dot;
        ++work.broadcast_values;
    }
    work.cost.ops.mul = static_cast<std::uint64_t>(work.divides);
    return work;
}

RootWork
Scalar(const ScalarOp& op, double* regs)
{
    const auto reg = [regs](ScalarReg r) {
        return regs[static_cast<std::size_t>(r)];
    };
    RootWork work;
    double out = 0.0;
    switch (op.kind) {
      case ScalarOp::Kind::kCopy:
        out = reg(op.a);
        break;
      case ScalarOp::Kind::kDiv:
        out = reg(op.a) / reg(op.b);
        work.divides = 1;
        break;
      case ScalarOp::Kind::kMulDiv:
        out = (reg(op.a) / reg(op.b)) * (reg(op.c) / reg(op.d));
        work.divides = 2;
        work.multiplies = 1;
        break;
    }
    regs[static_cast<std::size_t>(op.out)] = out;
    work.cost.ops.mul =
        static_cast<std::uint64_t>(work.divides + work.multiplies);
    return work;
}

RootWork
Host(const HostOp& op, double* regs, std::vector<double>& bank)
{
    AZUL_CHECK_MSG(op.kind == HostOp::Kind::kGmresLsq, "unknown host op");
    regs[static_cast<std::size_t>(op.out)] = GmresLsq(op, bank);
    RootWork work;
    const auto m = static_cast<std::uint64_t>(op.restart);
    work.cost.ops.fmac = m * (m + 1);
    work.broadcast_values = 1 + static_cast<int>(op.restart);
    return work;
}

PhaseCost
ReduceTreeCost(std::uint64_t edges)
{
    PhaseCost cost;
    cost.ops.add = edges;
    cost.ops.send = edges;
    cost.messages = edges;
    return cost;
}

PhaseCost
BroadcastCost(std::uint64_t edges, int values)
{
    PhaseCost cost;
    cost.ops.send = edges * static_cast<std::uint64_t>(values);
    cost.messages = cost.ops.send;
    return cost;
}

std::optional<Operand>
QuantizedOperand(const SolverProgram& prog, const Phase& phase)
{
    Operand target;
    switch (phase.kind) {
      case Phase::Kind::kMatrix:
        target.name = prog.matrix_kernels[static_cast<std::size_t>(
                                              phase.matrix_kernel)]
                          .output_vec;
        break;
      case Phase::Kind::kVector:
        if (phase.vec.op == VecOpKind::kDotReduce) {
            return std::nullopt;
        }
        target = {phase.vec.dst, phase.vec.dst_bank};
        break;
      case Phase::Kind::kScalar:
      case Phase::Kind::kHost:
        return std::nullopt;
    }
    if (target.bank < 0 &&
        (target.name == VecName::kX || target.name == VecName::kB)) {
        return std::nullopt;
    }
    return target;
}

void
QuantizeFp32(double* v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<double>(static_cast<float>(v[i]));
    }
}

} // namespace azul::phase
