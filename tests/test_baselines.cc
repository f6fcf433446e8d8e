#include <gtest/gtest.h>

#include "baselines/alrescha_model.h"
#include "baselines/dalorex.h"
#include "baselines/gpu_model.h"
#include "mapping/mapper_factory.h"
#include "solver/coloring.h"
#include "solver/ic0.h"
#include "solver/pcg.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

struct Case {
    CsrMatrix a;
    CsrMatrix l;
    double flops;
};

Case
MakeCase()
{
    Case c;
    c.a = RandomGeometricLaplacian(2000, 9.0, 3);
    c.l = IncompleteCholesky(c.a);
    const auto m = MakePreconditioner(
        PreconditionerKind::kIncompleteCholesky, c.a);
    c.flops = PcgIterationFlops(c.a, *m).total();
    return c;
}

TEST(GpuModel, UtilizationBelowOnePercent)
{
    // Fig 1's headline: even the best matrix reaches only ~0.6% of
    // the V100's 7 TFLOP/s FP64 peak on PCG.
    const Case c = MakeCase();
    const GpuModelConfig cfg;
    // Our test matrix is ~1000x smaller than the paper's, so launch
    // overheads weigh more and absolute GFLOP/s is lower; the
    // utilization ceiling is the meaningful check.
    const double gflops = GpuPcgGflops(c.a, &c.l, c.flops, cfg);
    EXPECT_GT(gflops, 0.05);
    EXPECT_LT(gflops / cfg.peak_gflops, 0.02);
}

TEST(GpuModel, SpTRSVDominatesKernelTime)
{
    // Fig 3: SpMV + SpTRSV dominate, with SpTRSV the larger share on
    // parallelism-limited matrices.
    const Case c = MakeCase();
    const GpuKernelTimes t = GpuPcgIterationTime(c.a, &c.l);
    EXPECT_GT(t.sptrsv_s, t.spmv_s);
    EXPECT_GT(t.spmv_s + t.sptrsv_s, t.vector_s);
}

TEST(GpuModel, ColoringSpeedsUpSpTRSV)
{
    // Fig 7: coloring reduces level count and thus GPU runtime.
    const CsrMatrix a = RandomGeometricLaplacian(2000, 9.0, 5);
    const ColoredMatrix cm = ColorAndPermute(a);
    const CsrMatrix l_orig = IncompleteCholesky(a);
    const CsrMatrix l_col = IncompleteCholesky(cm.a);
    const double t_orig = GpuPcgIterationTime(a, &l_orig).total();
    const double t_col = GpuPcgIterationTime(cm.a, &l_col).total();
    EXPECT_LT(t_col, t_orig / 1.5);
}

TEST(GpuModel, UnpreconditionedHasNoSpTRSV)
{
    const Case c = MakeCase();
    const GpuKernelTimes t = GpuPcgIterationTime(c.a, nullptr);
    EXPECT_EQ(t.sptrsv_s, 0.0);
    EXPECT_GT(t.spmv_s, 0.0);
}

TEST(GpuModel, SpMVIsBandwidthBound)
{
    // Doubling bandwidth should nearly halve SpMV time for a large
    // matrix.
    const Case c = MakeCase();
    GpuModelConfig fast;
    fast.mem_bw_gbs = 1800.0;
    fast.launch_overhead_us = 0.0;
    GpuModelConfig slow = fast;
    slow.mem_bw_gbs = 900.0;
    const double t_fast = GpuPcgIterationTime(c.a, nullptr, fast).spmv_s;
    const double t_slow = GpuPcgIterationTime(c.a, nullptr, slow).spmv_s;
    EXPECT_NEAR(t_slow / t_fast, 2.0, 0.05);
}

TEST(Alrescha, BandwidthBoundThroughput)
{
    // The model caps throughput at ~2 FLOP per streamed nonzero
    // (bytes_per_nnz=12 at 288 GB/s -> 48 GFLOP/s), the paper's
    // quoted ALRESCHA bound.
    const Case c = MakeCase();
    const double gflops = AlreschaPcgGflops(c.a, &c.l, c.flops);
    EXPECT_GT(gflops, 20.0);
    EXPECT_LT(gflops, 60.0);
}

TEST(Alrescha, TimeScalesWithNnz)
{
    const CsrMatrix small = Grid2dLaplacian(20, 20);
    const CsrMatrix large = Grid2dLaplacian(60, 60);
    EXPECT_GT(AlreschaPcgIterationTime(large, nullptr),
              5.0 * AlreschaPcgIterationTime(small, nullptr));
}

TEST(Dalorex, FunctionallyCorrectAndSlow)
{
    const CsrMatrix a0 = RandomGeometricLaplacian(400, 7.0, 7);
    const ColoredMatrix cm = ColorAndPermute(a0);
    const CsrMatrix l = IncompleteCholesky(cm.a);
    const Vector b = azul::testing::RandomVector(cm.a.rows(), 9);
    SimConfig base;
    base.grid_width = 4;
    base.grid_height = 4;
    const DalorexResult res =
        RunDalorexPcg(cm.a, &l, b, base, 1e-8, 500);
    EXPECT_TRUE(res.run.converged);
    EXPECT_GT(res.gflops, 0.0);
    // Dalorex achieves only a small fraction of peak (paper: ~1%).
    EXPECT_LT(res.gflops / base.PeakGflops(), 0.1);
}

TEST(Dalorex, SlowerThanAzulPeSameMapping)
{
    // Fig 2's PE contribution: Azul PEs beat scalar cores well beyond
    // the mapping effect. Indirectly verified via cycle counts in
    // test_machine_kernels; here check end-to-end GFLOP/s ordering
    // against the GPU-style analytic expectation.
    const CsrMatrix a0 = RandomGeometricLaplacian(400, 7.0, 11);
    const ColoredMatrix cm = ColorAndPermute(a0);
    const CsrMatrix l = IncompleteCholesky(cm.a);
    const Vector b = azul::testing::RandomVector(cm.a.rows(), 13);
    SimConfig base;
    base.grid_width = 4;
    base.grid_height = 4;
    const DalorexResult dal =
        RunDalorexPcg(cm.a, &l, b, base, 1e-8, 50);

    // Same fabric, Azul PEs + azul mapping.
    MappingProblem prob;
    prob.a = &cm.a;
    prob.l = &l;
    const DataMapping mapping =
        MakeMapper(MapperKind::kAzul)->Map(prob, base.num_tiles());
    ProgramBuildInputs in;
    in.a = &cm.a;
    in.l = &l;
    in.precond = PreconditionerKind::kIncompleteCholesky;
    in.mapping = &mapping;
    in.geom = base.geometry();
    const SolverProgram prog = BuildSolverProgram(SolverKind::kPcg, in);
    Machine machine(base, &prog);
    const SolverRunResult azul_run =
        SolverDriver().Run(machine, b, 1e-8, 50);

    EXPECT_GT(azul_run.Gflops(base.clock_ghz), 2.0 * dal.gflops);
}

} // namespace
} // namespace azul
