/**
 * @file
 * Simulator robustness and failure-injection tests: watchdog, message
 * buffer spill, extreme latencies, and timing-model scaling. The
 * functional result must survive any timing configuration.
 */
#include <gtest/gtest.h>

#include "dataflow/program.h"
#include "mapping/mapper_factory.h"
#include "sim/machine.h"
#include "solver/ic0.h"
#include "solver/spmv.h"
#include "solver/sptrsv.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

using azul::testing::RandomVector;

struct Ctx {
    CsrMatrix a;
    CsrMatrix l;
    DataMapping mapping;
    SolverProgram program;
    SimConfig cfg;

    explicit Ctx(SimConfig base = {})
    {
        a = RandomGeometricLaplacian(250, 7.0, 41);
        l = IncompleteCholesky(a);
        cfg = base;
        cfg.grid_width = 4;
        cfg.grid_height = 4;
        MappingProblem prob;
        prob.a = &a;
        prob.l = &l;
        mapping =
            MakeMapper(MapperKind::kBlock)->Map(prob, cfg.num_tiles());
        ProgramBuildInputs in;
        in.a = &a;
        in.l = &l;
        in.precond = PreconditionerKind::kIncompleteCholesky;
        in.mapping = &mapping;
        in.geom = cfg.geometry();
        program = BuildSolverProgram(SolverKind::kPcg, in);
    }
};

TEST(SimRobustness, WatchdogAbortsRunawayKernel)
{
    Ctx ctx;
    ctx.cfg.max_phase_cycles = 10; // absurdly small
    Machine machine(ctx.cfg, &ctx.program);
    machine.LoadProblem(Vector(ctx.a.rows(), 0.0));
    machine.ScatterVector(VecName::kP, RandomVector(ctx.a.rows(), 1));
    EXPECT_THROW(machine.RunMatrixKernelStandalone(0), AzulError);
}

TEST(SimRobustness, TinyMessageBufferSpillsButStaysCorrect)
{
    Ctx ctx;
    ctx.cfg.msg_buffer_entries = 1;
    Machine machine(ctx.cfg, &ctx.program);
    machine.LoadProblem(Vector(ctx.a.rows(), 0.0));
    const Vector p = RandomVector(ctx.a.rows(), 2);
    machine.ScatterVector(VecName::kP, p);
    const SimStats stats = machine.RunMatrixKernelStandalone(0);
    EXPECT_GT(stats.spilled_messages, 0u);
    EXPECT_VECTOR_NEAR(machine.GatherVector(VecName::kAp),
                       SpMV(ctx.a, p), 1e-9);
}

TEST(SimRobustness, ExtremeLatenciesPreserveFunctionality)
{
    SimConfig brutal;
    brutal.hop_latency = 7;
    brutal.sram_latency = 9;
    brutal.fmac_latency = 11;
    brutal.num_contexts = 2;
    Ctx ctx(brutal);
    Machine machine(ctx.cfg, &ctx.program);
    const Vector b = RandomVector(ctx.a.rows(), 3);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 500);
    ASSERT_TRUE(run.converged);
    EXPECT_VECTOR_NEAR(SpMV(ctx.a, run.x), b, 1e-6);
}

TEST(SimRobustness, ScalarCoreSlowdownTracksIssueSlots)
{
    // On a compute-bound kernel, the scalar core's cycle count should
    // scale roughly with its issue-slot overhead.
    Ctx azul_ctx;
    const Vector r = RandomVector(azul_ctx.a.rows(), 4);

    const auto run_cycles = [&](PeModel pe, std::int32_t slots) {
        SimConfig cfg = azul_ctx.cfg;
        cfg.pe_model = pe;
        cfg.scalar_issue_slots = slots;
        Machine machine(cfg, &azul_ctx.program);
        machine.LoadProblem(Vector(azul_ctx.a.rows(), 0.0));
        machine.ScatterVector(VecName::kP, r);
        return machine.RunMatrixKernelStandalone(0).cycles;
    };
    const Cycle azul_pe = run_cycles(PeModel::kAzul, 8);
    const Cycle scalar4 = run_cycles(PeModel::kScalarCore, 4);
    const Cycle scalar8 = run_cycles(PeModel::kScalarCore, 8);
    EXPECT_GT(scalar4, azul_pe);
    EXPECT_GT(scalar8, scalar4);
    // Roughly linear in slots (loose bounds: network effects blur it).
    EXPECT_GT(static_cast<double>(scalar8),
              1.3 * static_cast<double>(scalar4));
}

TEST(SimRobustness, SingleTileMachineWorks)
{
    // Degenerate geometry: everything local, zero NoC traffic.
    CsrMatrix a = RandomGeometricLaplacian(120, 6.0, 5);
    CsrMatrix l = IncompleteCholesky(a);
    SimConfig cfg;
    cfg.grid_width = 1;
    cfg.grid_height = 1;
    MappingProblem prob;
    prob.a = &a;
    prob.l = &l;
    const DataMapping mapping =
        MakeMapper(MapperKind::kBlock)->Map(prob, 1);
    ProgramBuildInputs in;
    in.a = &a;
    in.l = &l;
    in.precond = PreconditionerKind::kIncompleteCholesky;
    in.mapping = &mapping;
    in.geom = cfg.geometry();
    const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
    Machine machine(cfg, &program);
    const Vector b = RandomVector(a.rows(), 6);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 500);
    ASSERT_TRUE(run.converged);
    EXPECT_EQ(run.stats.link_activations, 0u);
    EXPECT_VECTOR_NEAR(SpMV(a, run.x), b, 1e-6);
}

TEST(SimRobustness, NonSquareGridWorks)
{
    CsrMatrix a = RandomGeometricLaplacian(200, 7.0, 7);
    CsrMatrix l = IncompleteCholesky(a);
    SimConfig cfg;
    cfg.grid_width = 8;
    cfg.grid_height = 2;
    MappingProblem prob;
    prob.a = &a;
    prob.l = &l;
    AzulMapperOptions mopts;
    mopts.grid_width = 8;
    mopts.grid_height = 2;
    const DataMapping mapping =
        MakeMapper(MapperKind::kAzul, mopts)->Map(prob, 16);
    ProgramBuildInputs in;
    in.a = &a;
    in.l = &l;
    in.precond = PreconditionerKind::kIncompleteCholesky;
    in.mapping = &mapping;
    in.geom = cfg.geometry();
    const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
    Machine machine(cfg, &program);
    const Vector b = RandomVector(a.rows(), 8);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 500);
    ASSERT_TRUE(run.converged);
    EXPECT_VECTOR_NEAR(SpMV(a, run.x), b, 1e-6);
}

TEST(SimRobustness, DeterministicAcrossRuns)
{
    Ctx ctx;
    const Vector b = RandomVector(ctx.a.rows(), 9);
    Machine m1(ctx.cfg, &ctx.program);
    Machine m2(ctx.cfg, &ctx.program);
    const SolverRunResult r1 = SolverDriver().Run(m1, b, 1e-8, 100);
    const SolverRunResult r2 = SolverDriver().Run(m2, b, 1e-8, 100);
    EXPECT_EQ(r1.stats.cycles, r2.stats.cycles);
    EXPECT_EQ(r1.stats.messages, r2.stats.messages);
    EXPECT_EQ(r1.x, r2.x);
}

TEST(SimRobustness, ContextCountOneEqualsSingleThreaded)
{
    Ctx ctx;
    const Vector r = RandomVector(ctx.a.rows(), 10);
    SimConfig one_ctx = ctx.cfg;
    one_ctx.num_contexts = 1;
    SimConfig st = ctx.cfg;
    st.multithreading = false;

    const auto cycles = [&](const SimConfig& cfg) {
        Machine machine(cfg, &ctx.program);
        machine.LoadProblem(Vector(ctx.a.rows(), 0.0));
        machine.ScatterVector(VecName::kR, r);
        return machine.RunMatrixKernelStandalone(1).cycles;
    };
    EXPECT_EQ(cycles(one_ctx), cycles(st));
}

} // namespace
} // namespace azul
