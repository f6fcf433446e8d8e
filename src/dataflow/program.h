/**
 * @file
 * The compiled solver program IR: the full sequence of kernel phases
 * the machine executes per solver iteration (Listing 1 of the paper
 * for PCG), plus the prologue that establishes the initial residual
 * state and an explicit convergence contract.
 *
 * A SolverProgram is pure data — the engine layer (`src/sim/`)
 * interprets it without knowing which algorithm it encodes. PCG,
 * weighted Jacobi, and BiCGStab (Table II) are all built here as
 * plain programs; adding another iterative method (e.g. Chebyshev)
 * is an IR-level change only.
 */
#ifndef AZUL_DATAFLOW_PROGRAM_H_
#define AZUL_DATAFLOW_PROGRAM_H_

#include <string>
#include <vector>

#include "dataflow/sptrsv_graph.h"
#include "dataflow/task.h"
#include "dataflow/vector_ops_graph.h"
#include "mapping/mapping.h"
#include "solver/preconditioner.h"

namespace azul {

/**
 * A register-file operation computed at the scalar-tree root and
 * broadcast to all tiles (e.g. BiCGStab's beta and omega updates).
 */
struct ScalarOp {
    enum class Kind : std::uint8_t {
        kCopy,   //!< out = a
        kDiv,    //!< out = a / b
        kMulDiv, //!< out = (a / b) * (c / d)
    };
    Kind kind = Kind::kCopy;
    ScalarReg out = ScalarReg::kTmp;
    ScalarReg a = ScalarReg::kTmp;
    ScalarReg b = ScalarReg::kTmp;
    ScalarReg c = ScalarReg::kTmp;
    ScalarReg d = ScalarReg::kTmp;
};

/**
 * A host-side epilogue computed once per iteration on the scalar
 * state the machine reduced and broadcast — dense O(m^2) arithmetic
 * that would waste the fabric (the paper's Sec II-C division of
 * labor: the accelerator runs the sparse/vector kernels, the host
 * runs tiny dense solves). Both engines execute the identical serial
 * FP64 routine (`phase::Host` in sim/phase_semantics.h), so host ops
 * preserve the bit-identity contract.
 */
struct HostOp {
    enum class Kind : std::uint8_t {
        /** Givens-rotation least squares over the GMRES Hessenberg
         *  column block: reads H (column-major, column j at
         *  j*(restart+1)) and beta from the scalar bank, writes y to
         *  `y_offset` and the residual estimate |g(m)| to `out`. */
        kGmresLsq,
    };
    Kind kind = Kind::kGmresLsq;
    Index restart = 0;          //!< m, the Krylov dimension
    std::int32_t h_offset = 0;  //!< scalar-bank offset of H
    std::int32_t beta_offset = 0;
    std::int32_t y_offset = 0;
    ScalarReg out = ScalarReg::kRr;
};

/** One phase: a matrix kernel (by index), an inline vector kernel, a
 *  scalar-register operation, or a host-side epilogue. */
struct Phase {
    enum class Kind : std::uint8_t { kMatrix, kVector, kScalar, kHost };
    Kind kind = Kind::kVector;
    int matrix_kernel = -1;
    VectorKernel vec;
    ScalarOp scalar;
    HostOp host;

    static Phase
    Matrix(int index)
    {
        Phase p;
        p.kind = Kind::kMatrix;
        p.matrix_kernel = index;
        return p;
    }
    static Phase
    Vector(VectorKernel k)
    {
        Phase p;
        p.kind = Kind::kVector;
        p.vec = std::move(k);
        return p;
    }
    static Phase
    Scalar(ScalarOp op)
    {
        Phase p;
        p.kind = Kind::kScalar;
        p.scalar = op;
        return p;
    }
    static Phase
    Host(HostOp op)
    {
        Phase p;
        p.kind = Kind::kHost;
        p.host = op;
        return p;
    }
};

/**
 * The convergence contract of a program: which scalar register the
 * iteration body leaves the residual measure in, how to turn that
 * register into ||r||, and how often (if ever) to re-establish the
 * true residual before reading it. The generic run driver consults
 * only this spec — it has no built-in knowledge of PCG's kRr
 * convention.
 */
struct ConvergenceSpec {
    /** Register the iteration leaves the residual measure in. */
    ScalarReg residual_reg = ScalarReg::kRr;

    enum class Norm : std::uint8_t {
        kL2FromSquared, //!< register holds ||r||^2 (dot(r, r))
        kAbsolute,      //!< register holds ||r|| directly
    };
    Norm norm = Norm::kL2FromSquared;

    /**
     * If > 0 and the program provides `residual_recompute` phases,
     * the driver runs them every this-many iterations before reading
     * the residual register — guarding against drift between the
     * recurrence residual and the true residual b - A x on
     * long-running solves.
     */
    Index true_residual_interval = 0;
};

/** A compiled solver program with its placement context. */
struct SolverProgram {
    TorusGeometry geom;
    std::vector<TileId> vec_tile;
    std::vector<MatrixKernel> matrix_kernels;
    std::vector<Phase> prologue;  //!< run once (x = 0, r = b assumed)
    /**
     * Warm-start prologue: run once instead of `prologue` when the
     * driver is given a nonzero initial guess. Assumes the engine
     * loaded b and scattered x0 into the solution vector; computes
     * the true residual r = b - A x0 through the program's own SpMV
     * kernel and then re-establishes the recurrence state exactly as
     * `prologue` does, so warm and cold solves share every downstream
     * phase (docs/TIMESTEPPING.md).
     */
    std::vector<Phase> warm_prologue;
    std::vector<Phase> iteration; //!< run until convergence
    /** Optional phases re-establishing the true residual measure
     *  (see ConvergenceSpec::true_residual_interval). */
    std::vector<Phase> residual_recompute;
    /** How the run driver detects convergence. */
    ConvergenceSpec convergence;
    /** Vector holding the solution the driver gathers at the end. */
    VecName solution = VecName::kX;
    /** Per-index 1/diag(A) for the Jacobi kDiagScale kernel. */
    std::vector<double> jacobi_inv_diag;
    /**
     * Size of the multi-vector register bank (GMRES's Krylov basis;
     * 0 for programs that only use the named vectors). Bank vectors
     * are sharded across tiles like named vectors and count toward
     * the SRAM footprint, but are scratch within one iteration: they
     * are rebuilt from `solution` every restart, so checkpoints and
     * fault injection cover only the architectural VecName state.
     */
    Index num_bank_vectors = 0;
    /** Size of the broadcast scalar bank (Hessenberg entries + beta +
     *  y for GMRES; 0 when unused). */
    Index num_bank_scalars = 0;
    /** Nominal FLOPs per iteration, by kernel class. */
    double spmv_flops = 0.0;
    double sptrsv_flops = 0.0;
    double vector_flops = 0.0;
    /** Nominal FLOPs of the one-time prologue. */
    double prologue_flops = 0.0;
    /** Nominal FLOPs of the one-time warm-start prologue. */
    double warm_prologue_flops = 0.0;
    /** Nominal FLOPs of one residual_recompute execution. */
    double recompute_flops = 0.0;

    double
    FlopsPerIteration() const
    {
        return spmv_flops + sptrsv_flops + vector_flops;
    }
};

/** The iterative methods the program compiler knows how to build. */
enum class SolverKind : std::uint8_t {
    kPcg,      //!< preconditioned CG (Listing 1; the paper's default)
    kJacobi,   //!< weighted Jacobi (damped Richardson)
    kBiCgStab, //!< preconditioned BiCGStab (nonsymmetric systems)
    kGmres,    //!< restarted, right-preconditioned GMRES(m)
};

/** Printable solver-kind name ("pcg", "jacobi", "bicgstab",
 *  "gmres"). */
const char* SolverKindName(SolverKind kind);

/** Inverse of SolverKindName; leaves `out` untouched and returns
 *  false on an unknown name. */
bool ParseSolverKind(const std::string& text, SolverKind& out);

/** Inputs to program compilation. */
struct ProgramBuildInputs {
    const CsrMatrix* a = nullptr;
    /** Lower factor; required for trisolve-based preconditioners. */
    const CsrMatrix* l = nullptr;
    PreconditionerKind precond = PreconditionerKind::kIncompleteCholesky;
    const DataMapping* mapping = nullptr;
    TorusGeometry geom;
    GraphOptions graph;
    /** Damping weight of the kJacobi solver (ignored otherwise). */
    double jacobi_omega = 2.0 / 3.0;
    /** Krylov dimension m of the kGmres solver (ignored otherwise). */
    Index restart = 30;
};

/**
 * Compiles a solver program of the requested kind on the placement
 * given by the mapping — the single compilation entry point. kPcg,
 * kBiCgStab, and kGmres honor `in.precond`/`in.l`; kJacobi is its
 * own method and ignores the preconditioner fields (pass
 * PreconditionerKind::kIdentity and l = nullptr).
 */
SolverProgram BuildSolverProgram(SolverKind kind,
                                 const ProgramBuildInputs& in);

/**
 * Compiles a weighted-Jacobi (damped Richardson) solver program —
 * the simplest Table II workload, exercising only SpMV + vector ops:
 *
 *     x += omega * D^{-1} (b - A x)
 *
 * Runs through the same generic SolverDriver as every other program.
 */
SolverProgram BuildJacobiSolverProgram(const CsrMatrix& a,
                                       const DataMapping& mapping,
                                       const TorusGeometry& geom,
                                       double omega = 2.0 / 3.0,
                                       const GraphOptions& graph = {});

/**
 * Compiles a BiCGStab solver program — Table II's nonsymmetric
 * workhorse, built from two SpMVs plus vector and scalar kernels per
 * iteration. The matrix need not be symmetric, so this exercises
 * Azul's generality beyond PCG. With the default kIdentity
 * preconditioner the emitted program is exactly the historical
 * unpreconditioned one; any other kind compiles the right-
 * preconditioned variant (M^{-1} applied before each SpMV), with `l`
 * required for the trisolve-based preconditioners.
 */
SolverProgram BuildBiCgStabProgram(
    const CsrMatrix& a, const DataMapping& mapping,
    const TorusGeometry& geom, const GraphOptions& graph = {},
    PreconditionerKind precond = PreconditionerKind::kIdentity,
    const CsrMatrix* l = nullptr);

/**
 * Compiles a restarted right-preconditioned GMRES(m) program. One
 * driver iteration is one full restart cycle: recompute the true
 * residual, build the m-dimensional Arnoldi basis (modified
 * Gram-Schmidt over the multi-vector bank, one SpMV + preconditioner
 * apply per column), solve the (m+1) x m Hessenberg least squares on
 * the host (Phase::Kind::kHost), and fold the correction back into
 * x. The residual estimate |g(m)| lands in ScalarReg::kRr
 * (Norm::kAbsolute). The statically unrolled iteration has O(m^2)
 * phases, re-walking the same SpMV kernel m+1 times — the paper's
 * structure-reuse observation applied across the restart loop.
 */
SolverProgram BuildGmresProgram(const ProgramBuildInputs& in);

} // namespace azul

#endif // AZUL_DATAFLOW_PROGRAM_H_
