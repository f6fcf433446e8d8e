/**
 * @file
 * Tests of the generic SolverDriver: one convergence loop running
 * every compiled solver program (PCG, weighted Jacobi, BiCGStab)
 * purely through the SolverProgram / ConvergenceSpec contract.
 */
#include <limits>

#include <gtest/gtest.h>

#include "dataflow/program.h"
#include "mapping/mapper_factory.h"
#include "sim/machine.h"
#include "solver/bicgstab.h"
#include "solver/ic0.h"
#include "solver/pcg.h"
#include "solver/spmv.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

using azul::testing::RandomVector;

// The public SolverKind (dataflow/program.h) doubles as the test
// parameter: the cases below cover each of its enumerators.

/** Diagonally dominant nonsymmetric matrix for BiCGStab. */
CsrMatrix
Nonsymmetric(Index n, std::uint64_t seed)
{
    CooMatrix coo(n, n);
    Rng rng(seed);
    for (Index i = 0; i < n; ++i) {
        coo.Add(i, i, 6.0);
        if (i + 1 < n) {
            coo.Add(i, i + 1, rng.UniformDouble(0.5, 1.5));
            coo.Add(i + 1, i, rng.UniformDouble(-1.5, -0.5));
        }
        if (i + 9 < n) {
            coo.Add(i, i + 9, 0.4);
            coo.Add(i + 9, i, -0.3);
        }
    }
    return CsrMatrix::FromCoo(coo);
}

/** One compiled solver program plus its build context. */
struct Compiled {
    CsrMatrix a;
    CsrMatrix l;
    DataMapping mapping;
    SolverProgram program;
    SimConfig cfg;
};

Compiled
Build(SolverKind kind)
{
    Compiled c;
    c.cfg.grid_width = 4;
    c.cfg.grid_height = 4;
    switch (kind) {
      case SolverKind::kPcg: {
        c.a = RandomGeometricLaplacian(300, 7.0, 17);
        c.l = IncompleteCholesky(c.a);
        MappingProblem prob;
        prob.a = &c.a;
        prob.l = &c.l;
        c.mapping = MakeMapper(MapperKind::kAzul)
                        ->Map(prob, c.cfg.num_tiles());
        ProgramBuildInputs in;
        in.a = &c.a;
        in.l = &c.l;
        in.precond = PreconditionerKind::kIncompleteCholesky;
        in.mapping = &c.mapping;
        in.geom = c.cfg.geometry();
        c.program = BuildSolverProgram(SolverKind::kPcg, in);
        break;
      }
      case SolverKind::kJacobi: {
        c.a = RandomSpd(200, 4, 31);
        MappingProblem prob;
        prob.a = &c.a;
        c.mapping = MakeMapper(MapperKind::kAzul)
                        ->Map(prob, c.cfg.num_tiles());
        c.program = BuildJacobiSolverProgram(c.a, c.mapping,
                                             c.cfg.geometry());
        break;
      }
      case SolverKind::kBiCgStab: {
        c.a = Nonsymmetric(250, 61);
        MappingProblem prob;
        prob.a = &c.a;
        c.mapping = MakeMapper(MapperKind::kAzul)
                        ->Map(prob, c.cfg.num_tiles());
        c.program =
            BuildBiCgStabProgram(c.a, c.mapping, c.cfg.geometry());
        break;
      }
    }
    return c;
}

struct DriverCase {
    SolverKind kind;
    const char* name;
    double tol;
    Index max_iters;
};

class SolverDriverTest : public ::testing::TestWithParam<DriverCase> {};

TEST_P(SolverDriverTest, ConvergesAndSolvesTheSystem)
{
    const DriverCase& tc = GetParam();
    Compiled c = Build(tc.kind);
    Machine machine(c.cfg, &c.program);
    const Vector b = RandomVector(c.a.rows(), 3);

    const SolverRunResult run =
        SolverDriver().Run(machine, b, tc.tol, tc.max_iters);
    ASSERT_TRUE(run.converged);
    EXPECT_GT(run.iterations, 0);
    EXPECT_LT(run.iterations, tc.max_iters);
    EXPECT_GT(run.stats.cycles, 0u);
    EXPECT_GT(run.flops, 0.0);
    EXPECT_VECTOR_NEAR(SpMV(c.a, run.x), b, 1e-5);

    // The history covers every convergence check and ends below tol.
    ASSERT_GE(run.residual_history.size(),
              static_cast<std::size_t>(run.iterations));
    EXPECT_LE(run.residual_history.back(), tc.tol);
    EXPECT_LT(run.residual_history.back(), run.residual_history.front());
}

TEST_P(SolverDriverTest, AgreesWithHostReferenceSolver)
{
    const DriverCase& tc = GetParam();
    Compiled c = Build(tc.kind);
    Machine machine(c.cfg, &c.program);
    const Vector b = RandomVector(c.a.rows(), 5);

    const SolverRunResult run =
        SolverDriver().Run(machine, b, tc.tol, tc.max_iters);
    ASSERT_TRUE(run.converged);

    Vector ref_x;
    switch (tc.kind) {
      case SolverKind::kPcg: {
        const auto m = MakePreconditioner(
            PreconditionerKind::kIncompleteCholesky, c.a);
        const SolveResult ref = PreconditionedConjugateGradients(
            c.a, b, *m, tc.tol, tc.max_iters);
        ASSERT_TRUE(ref.converged);
        // Same algorithm on the same data: iteration counts match up
        // to roundoff near the threshold.
        EXPECT_NEAR(static_cast<double>(run.iterations),
                    static_cast<double>(ref.iterations), 2.0);
        ref_x = ref.x;
        break;
      }
      case SolverKind::kJacobi: {
        // Host weighted Jacobi with the builder's default damping.
        Vector x(b.size(), 0.0);
        for (Index it = 0; it < run.iterations; ++it) {
            const Vector ax = SpMV(c.a, x);
            for (Index i = 0; i < c.a.rows(); ++i) {
                const double r = b[static_cast<std::size_t>(i)] -
                                 ax[static_cast<std::size_t>(i)];
                x[static_cast<std::size_t>(i)] +=
                    (2.0 / 3.0) * r / c.a.At(i, i);
            }
        }
        ref_x = x;
        break;
      }
      case SolverKind::kBiCgStab: {
        const auto m = MakePreconditioner(
            PreconditionerKind::kIdentity, c.a);
        const SolveResult ref =
            BiCgStab(c.a, b, *m, tc.tol, tc.max_iters);
        ASSERT_TRUE(ref.converged);
        EXPECT_NEAR(static_cast<double>(run.iterations),
                    static_cast<double>(ref.iterations), 3.0);
        ref_x = ref.x;
        break;
      }
    }
    EXPECT_VECTOR_NEAR(run.x, ref_x, 1e-5);
}

// gtest prints each case's raw bytes, padding included, into its
// CTest name. A static table is zero-filled before its members are
// set, so the padding prints as 00 rather than as stack garbage that
// changes from build to build.
constexpr DriverCase kDriverCases[] = {
    {SolverKind::kPcg, "pcg", 1e-8, 500},
    {SolverKind::kJacobi, "jacobi", 1e-8, 2000},
    {SolverKind::kBiCgStab, "bicgstab", 1e-9, 2000},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, SolverDriverTest, ::testing::ValuesIn(kDriverCases),
    [](const ::testing::TestParamInfo<DriverCase>& info) {
        return std::string(info.param.name);
    });

// ---- ConvergenceSpec contract -----------------------------------------------

TEST(ConvergenceSpec, DriverReadsTheResidualRegisterItIsGiven)
{
    // Rewire Jacobi's convergence dot into a different register; the
    // driver must follow the spec, not a built-in kRr convention.
    Compiled c = Build(SolverKind::kJacobi);
    SolverProgram alt = c.program;
    bool rewired = false;
    const auto rewire = [&rewired](std::vector<Phase>& phases) {
        for (Phase& p : phases) {
            if (p.kind == Phase::Kind::kVector &&
                p.vec.op == VecOpKind::kDotReduce &&
                p.vec.dot_out == ScalarReg::kRr) {
                p.vec.dot_out = ScalarReg::kTmp;
                rewired = true;
            }
        }
    };
    rewire(alt.prologue);
    rewire(alt.iteration);
    ASSERT_TRUE(rewired);
    alt.convergence.residual_reg = ScalarReg::kTmp;

    const Vector b = RandomVector(c.a.rows(), 9);
    Machine base(c.cfg, &c.program);
    const SolverRunResult base_run =
        SolverDriver().Run(base, b, 1e-8, 2000);
    Machine moved(c.cfg, &alt);
    const SolverRunResult alt_run =
        SolverDriver().Run(moved, b, 1e-8, 2000);

    ASSERT_TRUE(base_run.converged);
    ASSERT_TRUE(alt_run.converged);
    EXPECT_EQ(alt_run.iterations, base_run.iterations);
    EXPECT_VECTOR_NEAR(alt_run.x, base_run.x, 0.0);
}

TEST(ConvergenceSpec, TrueResidualRecomputeRunsOnTheGivenInterval)
{
    Compiled c = Build(SolverKind::kJacobi);
    ASSERT_FALSE(c.program.residual_recompute.empty());
    ASSERT_GT(c.program.recompute_flops, 0.0);

    SolverProgram periodic = c.program;
    periodic.convergence.true_residual_interval = 7;

    const Vector b = RandomVector(c.a.rows(), 11);
    Machine base(c.cfg, &c.program);
    const SolverRunResult base_run =
        SolverDriver().Run(base, b, 1e-8, 2000);
    Machine machine(c.cfg, &periodic);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 2000);

    ASSERT_TRUE(base_run.converged);
    ASSERT_TRUE(run.converged);
    // Jacobi's recurrence residual lags the x update by one iteration,
    // so refreshing it can only help (never hurt) convergence.
    EXPECT_LE(run.iterations, base_run.iterations);
    // The recompute phases actually executed: the FLOP total exceeds
    // prologue + iterations alone by at least one recompute.
    const double no_recompute_flops =
        periodic.prologue_flops +
        static_cast<double>(run.iterations) *
            periodic.FlopsPerIteration();
    EXPECT_GE(run.flops,
              no_recompute_flops + periodic.recompute_flops - 0.5);
}

TEST(ConvergenceSpec, AbsoluteNormSkipsTheSquareRoot)
{
    // A program whose register already holds ||r|| converges at the
    // squared threshold of one holding ||r||^2.
    Compiled c = Build(SolverKind::kJacobi);
    SolverProgram abs = c.program;
    abs.convergence.norm = ConvergenceSpec::Norm::kAbsolute;

    const Vector b = RandomVector(c.a.rows(), 13);
    Machine sq(c.cfg, &c.program);
    const SolverRunResult sq_run =
        SolverDriver().Run(sq, b, 1e-8, 2000);
    Machine machine(c.cfg, &abs);
    // The register holds ||r||^2, so reading it "absolute" against
    // tol^2 must stop at the same iteration as sqrt against tol.
    const SolverRunResult abs_run =
        SolverDriver().Run(machine, b, 1e-16, 2000);

    ASSERT_TRUE(sq_run.converged);
    ASSERT_TRUE(abs_run.converged);
    EXPECT_EQ(abs_run.iterations, sq_run.iterations);
}

// ---- Failure classification (docs/ROBUSTNESS.md) ----------------------------

TEST(FailureClassification, PoisonedRhsFailsFastAsNumericalBreakdown)
{
    // Regression for the ResidualNorm NaN fix: a NaN residual compares
    // false against any tolerance, so the driver used to spin silently
    // to max_iters reporting "not converged" with a plausible count.
    Compiled c = Build(SolverKind::kJacobi);
    Vector b = RandomVector(c.a.rows(), 3);
    b[0] = std::numeric_limits<double>::quiet_NaN();

    Machine machine(c.cfg, &c.program);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 2000);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kNumericalBreakdown);
    // The NaN is visible in the prologue's rr = b.b: no iteration may
    // execute before the driver notices.
    EXPECT_EQ(run.iterations, 0);
    EXPECT_STREQ(FailureKindName(run.failure), "numerical-breakdown");
}

TEST(FailureClassification, InfinityInRhsIsAlsoABreakdown)
{
    Compiled c = Build(SolverKind::kJacobi);
    Vector b = RandomVector(c.a.rows(), 3);
    b[b.size() / 2] = std::numeric_limits<double>::infinity();

    Machine machine(c.cfg, &c.program);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 2000);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kNumericalBreakdown);
    EXPECT_EQ(run.iterations, 0);
}

/** Symmetric tridiagonal matrix with unit diagonal and off-diagonal
 *  couplings of +-1: weighted Jacobi diverges on it (the iteration
 *  matrix has spectral radius > 1) while every diagonal entry stays
 *  legal for the builder. */
CsrMatrix
JacobiDivergent(Index n)
{
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i) {
        coo.Add(i, i, 1.0);
        if (i + 1 < n) {
            coo.Add(i, i + 1, 1.0);
            coo.Add(i + 1, i, 1.0);
        }
    }
    return CsrMatrix::FromCoo(coo);
}

TEST(FailureClassification, DivergentStationaryIterationIsLabeled)
{
    const CsrMatrix a = JacobiDivergent(160);
    SimConfig cfg;
    cfg.grid_width = 4;
    cfg.grid_height = 4;
    MappingProblem prob;
    prob.a = &a;
    const DataMapping mapping =
        MakeMapper(MapperKind::kBlock)->Map(prob, cfg.num_tiles());
    const SolverProgram program =
        BuildJacobiSolverProgram(a, mapping, cfg.geometry());

    Machine machine(cfg, &program);
    const SolverRunResult run = SolverDriver().Run(
        machine, RandomVector(a.rows(), 5), 1e-8, 200);

    EXPECT_FALSE(run.converged);
    // The residual grows geometrically: by 200 iterations it is far
    // above its initial value (but still finite), which the post-hoc
    // classifier labels divergence.
    EXPECT_EQ(run.failure, FailureKind::kDivergence);
    EXPECT_GT(run.residual_norm, run.residual_history.front());
}

TEST(FailureClassification, OutOfIterationsWhileImprovingIsStagnation)
{
    Compiled c = Build(SolverKind::kJacobi);
    Machine machine(c.cfg, &c.program);
    // Far too few iterations to reach tol, but enough to improve on
    // the initial residual.
    const SolverRunResult run = SolverDriver().Run(
        machine, RandomVector(c.a.rows(), 3), 1e-12, 5);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kStagnation);
    EXPECT_LT(run.residual_norm, run.residual_history.front());
}

TEST(FailureClassification, ThroughputRunsWithZeroTolAreNotFailures)
{
    // tol = 0 bench runs never intend to converge: an out-of-
    // iterations exit must stay failure-free.
    Compiled c = Build(SolverKind::kJacobi);
    Machine machine(c.cfg, &c.program);
    const SolverRunResult run = SolverDriver().Run(
        machine, RandomVector(c.a.rows(), 3), 0.0, 5);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kNone);
}

/** Compiles plain CG (identity preconditioner — IC0 would reject
 *  these operators outright) and runs it on the given matrix. */
SolverRunResult
RunIdentityCg(const CsrMatrix& a, const Vector& b, Index max_iters)
{
    SimConfig cfg;
    cfg.grid_width = 4;
    cfg.grid_height = 4;
    MappingProblem prob;
    prob.a = &a;
    const DataMapping mapping =
        MakeMapper(MapperKind::kBlock)->Map(prob, cfg.num_tiles());
    ProgramBuildInputs in;
    in.a = &a;
    in.precond = PreconditionerKind::kIdentity;
    in.mapping = &mapping;
    in.geom = cfg.geometry();
    const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
    Machine machine(cfg, &program);
    return SolverDriver().Run(machine, b, 1e-8, max_iters);
}

TEST(FailureClassification, SingularOperatorUnderCgIsLabeledDivergence)
{
    // Singular PSD operator (2x2 blocks [[1,1],[1,1]]) with an
    // inconsistent right-hand side: p'Ap approaches zero, alpha
    // explodes, and the iterate blows up. The driver must label the
    // exit instead of reporting a silent non-convergence.
    const Index n = 160;
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; i += 2) {
        coo.Add(i, i, 1.0);
        coo.Add(i, i + 1, 1.0);
        coo.Add(i + 1, i, 1.0);
        coo.Add(i + 1, i + 1, 1.0);
    }
    const CsrMatrix a = CsrMatrix::FromCoo(coo);

    const SolverRunResult run =
        RunIdentityCg(a, RandomVector(n, 5), 300);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kDivergence);
    EXPECT_GT(run.residual_norm, 1e6); // exploded, still finite
}

TEST(FailureClassification, IndefiniteHardBreakdownFailsFastAsNan)
{
    // Classic CG hard breakdown: on the anti-diagonal operator
    // (blocks [[0,1],[1,0]], eigenvalues +-1) with b supported on the
    // even positions, p0 = r0 = b gives p'Ap = 0 exactly — alpha is
    // Inf at the first step and the iterate turns NaN. The driver
    // must fail fast, not spin for 300 iterations.
    const Index n = 160;
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; i += 2) {
        coo.Add(i, i + 1, 1.0);
        coo.Add(i + 1, i, 1.0);
    }
    const CsrMatrix a = CsrMatrix::FromCoo(coo);
    Vector b(static_cast<std::size_t>(n), 0.0);
    for (std::size_t i = 0; i < b.size(); i += 2) {
        b[i] = 1.0;
    }

    const SolverRunResult run = RunIdentityCg(a, b, 300);

    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kNumericalBreakdown);
    EXPECT_LE(run.iterations, 2) << "NaN must be caught immediately";
}

} // namespace
} // namespace azul
