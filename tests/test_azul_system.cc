#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

#include "core/azul_system.h"
#include "solver/spmv.h"
#include "sparse/coo.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

using azul::testing::RandomVector;

AzulOptions
SmallOptions()
{
    AzulOptions opts;
    opts.sim.grid_width = 4;
    opts.sim.grid_height = 4;
    opts.spec.tol = 1e-8;
    opts.spec.max_iters = 800;
    return opts;
}

/** Create-or-abort helper: these tests feed valid inputs, so a
 *  rejection is a test bug (value() checks). */
AzulSystem
MakeSystem(const CsrMatrix& a, const AzulOptions& opts)
{
    return *AzulSystem::Create(a, opts);
}

TEST(AzulSystem, EndToEndSolve)
{
    const CsrMatrix a = RandomGeometricLaplacian(400, 7.0, 3);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const Vector b = RandomVector(a.rows(), 5);
    const SolveReport rep = sys.Solve(b);
    EXPECT_TRUE(rep.run.converged);
    // Solution is returned in the ORIGINAL (unpermuted) order.
    EXPECT_VECTOR_NEAR(SpMV(a, rep.run.x), b, 1e-6);
    EXPECT_GT(rep.gflops, 0.0);
    EXPECT_GT(rep.peak_fraction, 0.0);
    EXPECT_LT(rep.peak_fraction, 1.0);
    EXPECT_GT(rep.power.total(), 0.0);
    EXPECT_GT(rep.solve_seconds, 0.0);
}

TEST(AzulSystem, ColoringOffStillSolves)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 5);
    AzulOptions opts = SmallOptions();
    opts.color_and_permute = false;
    AzulSystem sys = MakeSystem(a, opts);
    EXPECT_TRUE(sys.permutation().IsIdentity());
    const Vector b = RandomVector(a.rows(), 7);
    const SolveReport rep = sys.Solve(b);
    EXPECT_TRUE(rep.run.converged);
    EXPECT_VECTOR_NEAR(SpMV(a, rep.run.x), b, 1e-6);
}

TEST(AzulSystem, JacobiVariantHasNoFactor)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 9);
    AzulOptions opts = SmallOptions();
    opts.spec.precond = PreconditionerKind::kJacobi;
    AzulSystem sys = MakeSystem(a, opts);
    EXPECT_EQ(sys.factor(), nullptr);
    EXPECT_EQ(sys.program().matrix_kernels.size(), 1u); // SpMV only
    const Vector b = RandomVector(a.rows(), 11);
    EXPECT_TRUE(sys.Solve(b).run.converged);
}

TEST(AzulSystem, MappingSecondsRecorded)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 13);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    EXPECT_GT(sys.mapping_seconds(), 0.0);
    const SolveReport rep = sys.Solve(RandomVector(a.rows(), 1));
    EXPECT_DOUBLE_EQ(rep.mapping_seconds, sys.mapping_seconds());
}

TEST(AzulSystem, SramUsageReported)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 15);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const SramUsage usage = sys.sram_usage();
    EXPECT_TRUE(usage.fits);
    EXPECT_GT(usage.total_bytes, 0u);
}

TEST(AzulSystem, UpdateValuesKeepsMappingAndSolves)
{
    // The Sec II-C timestep path: same pattern, new values.
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 17);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const auto mapping_before = sys.mapping().a_nnz_tile;

    // Scale all values by 2: same pattern, SPD preserved.
    CsrMatrix a2 = a;
    for (double& v : a2.mutable_vals()) {
        v *= 2.0;
    }
    ASSERT_TRUE(sys.UpdateValues(a2).ok());
    EXPECT_EQ(sys.mapping().a_nnz_tile, mapping_before);

    const Vector b = RandomVector(a.rows(), 19);
    const SolveReport rep = sys.Solve(b);
    ASSERT_TRUE(rep.run.converged);
    EXPECT_VECTOR_NEAR(SpMV(a2, rep.run.x), b, 1e-6);
}

TEST(AzulSystem, UpdateValuesRejectsNewPattern)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 21);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const CsrMatrix other = RandomGeometricLaplacian(300, 7.0, 22);
    const Status st = sys.UpdateValues(other);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("sparsity pattern"),
              std::string::npos);
    // The rejection left the system untouched.
    const Vector b = RandomVector(a.rows(), 22);
    EXPECT_TRUE(sys.Solve(b).run.converged);
}

TEST(AzulSystemCreate, OkPathSolves)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 41);
    StatusOr<AzulSystem> sys = AzulSystem::Create(a, SmallOptions());
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    const Vector b = RandomVector(a.rows(), 43);
    EXPECT_TRUE(sys->Solve(b).run.converged);
}

TEST(AzulSystemCreate, RejectsNonSquareMatrix)
{
    CooMatrix coo(3, 4);
    coo.Add(0, 0, 1.0);
    coo.Add(1, 1, 1.0);
    coo.Add(2, 3, 1.0);
    const StatusOr<AzulSystem> sys =
        AzulSystem::Create(CsrMatrix::FromCoo(coo), SmallOptions());
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("square"),
              std::string::npos);
}

TEST(AzulSystemCreate, RejectsEmptyMatrix)
{
    const StatusOr<AzulSystem> sys =
        AzulSystem::Create(CsrMatrix(), SmallOptions());
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
}

TEST(AzulSystemCreate, RejectsBadTileGrid)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 45);
    AzulOptions opts = SmallOptions();
    opts.sim.grid_width = 0;
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("tile grid"),
              std::string::npos);
}

TEST(AzulSystemCreate, RejectsNegativeTolerance)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 47);
    AzulOptions opts = SmallOptions();
    opts.spec.tol = -1.0;
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
}

TEST(AzulSystemCreate, RejectsPreconditionedJacobiSolver)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 49);
    AzulOptions opts = SmallOptions();
    opts.spec.method = SolverKind::kJacobi;
    // kJacobi is its own method; the default IC(0) precond clashes.
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
}

TEST(AzulSystemCreate, RejectsMismatchedPrecomputedMapping)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 51);
    DataMapping wrong;
    wrong.num_tiles = 99; // machine has 16
    AzulOptions opts = SmallOptions();
    opts.precomputed_mapping = &wrong;
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("precomputed mapping"),
              std::string::npos);
}

TEST(AzulSystemCreate, StrictSramFitRejectsOverflow)
{
    // A problem far too large for 2x2 tiles with tiny scratchpads.
    const CsrMatrix a = RandomGeometricLaplacian(2000, 7.0, 53);
    AzulOptions opts = SmallOptions();
    opts.sim.grid_width = 2;
    opts.sim.grid_height = 2;
    opts.sim.data_sram_kb = 1;
    opts.sim.accum_sram_kb = 1;
    opts.strict_sram_fit = true;
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kResourceExhausted);

    // The default (non-strict) policy still builds the system.
    opts.strict_sram_fit = false;
    EXPECT_TRUE(AzulSystem::Create(a, opts).ok());
}

TEST(AzulSystemCreate, RejectsFunctionalEngineWithFaults)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 55);
    AzulOptions opts = SmallOptions();
    opts.engine = EngineKind::kFunctional;
    opts.sim.fault_rate = 1e-5;
    ASSERT_TRUE(opts.sim.faults_enabled());
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("fault"),
              std::string::npos);

    // Without faults the functional engine builds and solves.
    opts.sim.fault_rate = 0.0;
    StatusOr<AzulSystem> func = AzulSystem::Create(a, opts);
    ASSERT_TRUE(func.ok()) << func.status().ToString();
    const Vector b = RandomVector(a.rows(), 57);
    const SolveReport rep = func->Solve(b);
    EXPECT_TRUE(rep.run.converged);
    EXPECT_EQ(rep.engine, EngineKind::kFunctional);
    EXPECT_NE(rep.ToJson().find("\"engine\":\"functional\""),
              std::string::npos);
}

TEST(AzulSystem, RunKernelOnceSpMV)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 23);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const Vector v = RandomVector(a.rows(), 25);
    const SimStats stats = sys.RunKernelOnce(0, v);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.ops.fmac, 0u);
}

TEST(AzulSystem, SolveIsRepeatable)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 27);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const Vector b = RandomVector(a.rows(), 29);
    const SolveReport r1 = sys.Solve(b);
    const SolveReport r2 = sys.Solve(b);
    EXPECT_EQ(r1.run.iterations, r2.run.iterations);
    EXPECT_EQ(r1.run.stats.cycles, r2.run.stats.cycles);
    EXPECT_EQ(r1.run.x, r2.run.x);
}

TEST(AzulSystem, EmptyMatrixRejected)
{
    CsrMatrix empty;
    const StatusOr<AzulSystem> sys =
        AzulSystem::Create(empty, SmallOptions());
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
}

TEST(AzulSystem, SummaryMentionsConvergence)
{
    const CsrMatrix a = RandomGeometricLaplacian(300, 7.0, 31);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const SolveReport rep = sys.Solve(RandomVector(a.rows(), 33));
    EXPECT_NE(rep.Summary().find("converged"), std::string::npos);
    EXPECT_NE(rep.Summary().find("GFLOP/s"), std::string::npos);
}

TEST(AzulSystem, OptionsToString)
{
    const AzulOptions opts = SmallOptions();
    const std::string s = opts.ToString();
    EXPECT_NE(s.find("azul"), std::string::npos);
    EXPECT_NE(s.find("ic0"), std::string::npos);
    EXPECT_NE(s.find("engine=cycle"), std::string::npos);
}

// ---- Warm-start validation and structure drift (docs/TIMESTEPPING.md) -------

TEST(AzulSystemCreate, RejectsWrongLengthX0)
{
    const CsrMatrix a = RandomGeometricLaplacian(200, 7.0, 41);
    AzulOptions opts = SmallOptions();
    opts.x0 = Vector(7, 0.0); // 200-row system: silently ignoring
                              // this guess would be a correctness trap
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("x0"), std::string::npos);
}

TEST(AzulSystemCreate, RejectsDriftThresholdBelowOne)
{
    const CsrMatrix a = RandomGeometricLaplacian(200, 7.0, 43);
    AzulOptions opts = SmallOptions();
    opts.drift_traffic_threshold = 0.5;
    EXPECT_EQ(AzulSystem::Create(a, opts).status().code(),
              StatusCode::kInvalidArgument);
    opts.drift_traffic_threshold =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(AzulSystem::Create(a, opts).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(AzulSystem, UpdateMatrixRejectsDifferentDimensions)
{
    const CsrMatrix a = RandomGeometricLaplacian(200, 7.0, 45);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const CsrMatrix smaller = RandomGeometricLaplacian(100, 7.0, 45);
    const Status st = sys.UpdateMatrix(smaller);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    // The rejection left the system untouched.
    const Vector b = RandomVector(a.rows(), 46);
    EXPECT_TRUE(sys.Solve(b).run.converged);
}

TEST(AzulSystem, UpdateMatrixSamePatternActsAsUpdateValues)
{
    const CsrMatrix a = RandomGeometricLaplacian(250, 7.0, 47);
    AzulSystem sys = MakeSystem(a, SmallOptions());
    const std::uint64_t hash_before = sys.structure_hash();
    CsrMatrix a2 = a;
    for (double& v : a2.mutable_vals()) {
        v *= 1.5;
    }
    ASSERT_TRUE(sys.UpdateMatrix(a2).ok());
    // Identical pattern: no drift event of either kind.
    EXPECT_EQ(sys.mapping_reuses(), 0);
    EXPECT_EQ(sys.repartitions(), 0);
    EXPECT_EQ(sys.structure_hash(), hash_before);
    const Vector b = RandomVector(a.rows(), 48);
    const SolveReport rep = sys.Solve(b);
    ASSERT_TRUE(rep.run.converged);
    EXPECT_VECTOR_NEAR(SpMV(a2, rep.run.x), b, 1e-6);
}

TEST(AzulSystem, UpdateMatrixHandlesPatternDriftAndSolves)
{
    const CsrMatrix a = RandomGeometricLaplacian(250, 7.0, 49);
    AzulOptions opts = SmallOptions();
    opts.warm_start = true;
    AzulSystem sys = MakeSystem(a, opts);
    const Vector b = RandomVector(a.rows(), 50);
    ASSERT_TRUE(sys.Solve(b).run.converged);
    ASSERT_TRUE(sys.has_warm_state());
    const std::uint64_t hash_before = sys.structure_hash();

    // Add two symmetric couplings: new sparsity pattern, still SPD.
    CooMatrix coo = a.ToCoo();
    const Index pairs[2][2] = {{3, 180}, {57, 140}};
    for (const auto& p : pairs) {
        coo.Add(p[0], p[1], -0.5);
        coo.Add(p[1], p[0], -0.5);
        coo.Add(p[0], p[0], 0.5);
        coo.Add(p[1], p[1], 0.5);
    }
    coo.Canonicalize();
    const CsrMatrix a2 = CsrMatrix::FromCoo(coo);

    ASSERT_TRUE(sys.UpdateMatrix(a2).ok());
    EXPECT_NE(sys.structure_hash(), hash_before);
    // Exactly one drift decision was taken, either way.
    EXPECT_EQ(sys.mapping_reuses() + sys.repartitions(), 1);
    // The warm state survives the structural update...
    EXPECT_TRUE(sys.has_warm_state());
    const SolveReport rep = sys.Solve(b);
    EXPECT_TRUE(rep.warm_started);
    ASSERT_TRUE(rep.run.converged);
    // ...and the solve answers the NEW system.
    EXPECT_VECTOR_NEAR(SpMV(a2, rep.run.x), b, 1e-6);
}

TEST(AzulSystemCreate, SpecValidationRejectsBadGmresRestart)
{
    const CsrMatrix a = RandomGeometricLaplacian(100, 7.0, 97);
    AzulOptions opts = SmallOptions();
    opts.spec.method = SolverKind::kGmres;
    opts.spec.restart = 0;
    const StatusOr<AzulSystem> sys = AzulSystem::Create(a, opts);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sys.status().message().find("restart"),
              std::string::npos);
}

TEST(ApplyEnvOverrides, AzulSolverSpecVarsSelectAndIgnoreGarbage)
{
    {
        AzulOptions opts;
        ::setenv("AZUL_SOLVER", "gmres", 1);
        ::setenv("AZUL_PRECOND", "ssor", 1);
        ::setenv("AZUL_PRECISION", "fp32", 1);
        ApplyEnvOverrides(opts);
        EXPECT_EQ(opts.spec.method, SolverKind::kGmres);
        EXPECT_EQ(opts.spec.precond, PreconditionerKind::kSsor);
        EXPECT_EQ(opts.spec.precision, PrecisionMode::kFp32);
    }
    {
        AzulOptions opts;
        ::setenv("AZUL_SOLVER", "minres", 1);
        ::setenv("AZUL_PRECOND", "ilu", 1);
        ::setenv("AZUL_PRECISION", "fp16", 1);
        ApplyEnvOverrides(opts); // invalid: defaults stand
        EXPECT_EQ(opts.spec.method, SolverKind::kPcg);
        EXPECT_EQ(opts.spec.precond,
                  PreconditionerKind::kIncompleteCholesky);
        EXPECT_EQ(opts.spec.precision, PrecisionMode::kFp64);
    }
    {
        AzulOptions opts;
        opts.spec.method = SolverKind::kBiCgStab;
        ::unsetenv("AZUL_SOLVER");
        ::unsetenv("AZUL_PRECOND");
        ::unsetenv("AZUL_PRECISION");
        ApplyEnvOverrides(opts); // unset: no-op
        EXPECT_EQ(opts.spec.method, SolverKind::kBiCgStab);
    }
}

TEST(ApplyEnvOverrides, AzulEngineSelectsEngineAndIgnoresGarbage)
{
    {
        AzulOptions opts;
        ::setenv("AZUL_ENGINE", "functional", 1);
        ApplyEnvOverrides(opts);
        EXPECT_EQ(opts.engine, EngineKind::kFunctional);
    }
    {
        AzulOptions opts;
        ::setenv("AZUL_ENGINE", "hyperdrive", 1);
        ApplyEnvOverrides(opts); // invalid: default stands
        EXPECT_EQ(opts.engine, EngineKind::kCycle);
    }
    {
        AzulOptions opts;
        opts.engine = EngineKind::kFunctional;
        ::unsetenv("AZUL_ENGINE");
        ApplyEnvOverrides(opts); // unset: no-op
        EXPECT_EQ(opts.engine, EngineKind::kFunctional);
    }
}

} // namespace
} // namespace azul
