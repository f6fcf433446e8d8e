/**
 * @file
 * Differential tests of the functional execution engine: for every
 * solver program (PCG, weighted Jacobi, BiCGStab) and mapping policy
 * (round-robin, block, hypergraph), the timing-free FunctionalEngine
 * must produce the exact FP64 solution vector, residual history, and
 * residual norm of the cycle-accurate Machine — at every Machine
 * host-thread count. The canonical fold order assigned at kernel
 * build time (NodeDesc::stage_offset and friends in dataflow/task.h)
 * is what makes this bit-identity possible; any fold-order divergence
 * between the engines shows up here as a bit diff.
 *
 * The suite also cross-checks the functional engine against the
 * checked-in golden traces (the JSON files under tests/golden/): the
 * x/residual
 * hashes recorded from cycle-engine runs must be reproduced by the
 * functional engine, pinning both engines to the same committed
 * numbers.
 */
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/azul_system.h"
#include "dataflow/program.h"
#include "mapping/mapper_factory.h"
#include "sim/engine_functional.h"
#include "sim/machine.h"
#include "solver/ic0.h"
#include "solver/spmv.h"
#include "sparse/generators.h"
#include "test_helpers.h"

#ifndef AZUL_GOLDEN_DIR
#error "AZUL_GOLDEN_DIR must point at the source-tree tests/golden/"
#endif

namespace azul {
namespace {

using azul::testing::RandomVector;

// SolverKind comes from dataflow/program.h (the public enum).

/** Diagonally dominant nonsymmetric matrix for BiCGStab (same
 *  generator as test_parallel_sim / test_golden_traces, so the golden
 *  cross-check below runs the exact committed configurations). */
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

struct Compiled {
    CsrMatrix a;
    CsrMatrix l;
    DataMapping mapping;
    SolverProgram program;
    SimConfig cfg;
    Vector b;
};

Compiled
Build(SolverKind kind, MapperKind mapper, std::int32_t grid)
{
    Compiled c;
    c.cfg.grid_width = grid;
    c.cfg.grid_height = grid;
    MappingProblem prob;
    switch (kind) {
      case SolverKind::kPcg: {
        c.a = RandomGeometricLaplacian(50 * grid, 7.0, 17);
        c.l = IncompleteCholesky(c.a);
        prob.a = &c.a;
        prob.l = &c.l;
        c.mapping = MakeMapper(mapper)->Map(prob, c.cfg.num_tiles());
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
        c.a = RandomSpd(40 * grid, 4, 31);
        prob.a = &c.a;
        c.mapping = MakeMapper(mapper)->Map(prob, c.cfg.num_tiles());
        c.program = BuildJacobiSolverProgram(c.a, c.mapping,
                                             c.cfg.geometry());
        break;
      }
      case SolverKind::kBiCgStab: {
        c.a = Nonsymmetric(45 * grid, 61);
        prob.a = &c.a;
        c.mapping = MakeMapper(mapper)->Map(prob, c.cfg.num_tiles());
        c.program =
            BuildBiCgStabProgram(c.a, c.mapping, c.cfg.geometry());
        break;
      }
    }
    c.b = RandomVector(c.a.rows(), 3);
    return c;
}

/** Exact FP64 equality, compared as bit patterns. */
void
ExpectBitEqual(const Vector& got, const Vector& want,
               const char* label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::uint64_t gb = 0;
        std::uint64_t wb = 0;
        std::memcpy(&gb, &got[i], sizeof(gb));
        std::memcpy(&wb, &want[i], sizeof(wb));
        EXPECT_EQ(gb, wb) << label << "[" << i << "]: " << got[i]
                          << " vs " << want[i];
    }
}

/** The numerics the two engines must agree on, bit for bit. The
 *  timing-side stats (cycles, stalls, class attribution) are
 *  intentionally NOT compared — the functional engine does not model
 *  them (sim/engine_functional.h). */
void
ExpectNumericsIdentical(const SolverRunResult& got,
                        const SolverRunResult& want)
{
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.failure, want.failure);
    ExpectBitEqual(got.x, want.x, "x");
    ExpectBitEqual(got.residual_history, want.residual_history,
                   "residual_history");
    {
        std::uint64_t gb = 0;
        std::uint64_t wb = 0;
        std::memcpy(&gb, &got.residual_norm, sizeof(gb));
        std::memcpy(&wb, &want.residual_norm, sizeof(wb));
        EXPECT_EQ(gb, wb) << "residual_norm";
    }
    // Work counts are event-based in both engines and agree exactly
    // even though timing differs. The one occupancy-driven source of
    // SRAM traffic is message-buffer spills (one extra read + write
    // per spilled message, machine_matrix.cc), which the functional
    // engine has no buffers to spill from — subtract that traffic
    // from the cycle engine's counters before comparing.
    EXPECT_EQ(got.stats.ops.fmac, want.stats.ops.fmac);
    EXPECT_EQ(got.stats.ops.add, want.stats.ops.add);
    EXPECT_EQ(got.stats.ops.mul, want.stats.ops.mul);
    EXPECT_EQ(got.stats.ops.send, want.stats.ops.send);
    EXPECT_EQ(got.stats.messages, want.stats.messages);
    EXPECT_EQ(got.stats.spilled_messages, 0u);
    EXPECT_EQ(got.stats.sram_reads,
              want.stats.sram_reads - want.stats.spilled_messages);
    EXPECT_EQ(got.stats.sram_writes,
              want.stats.sram_writes - want.stats.spilled_messages);
}

struct EngineCase {
    SolverKind kind;
    MapperKind mapper;
    const char* name;
    Index iters;
};

class FunctionalEngineTest
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(FunctionalEngineTest, BitIdenticalToCycleEngine)
{
    const EngineCase& tc = GetParam();
    const Compiled c = Build(tc.kind, tc.mapper, /*grid=*/4);

    FunctionalEngine functional(c.cfg, &c.program);
    const SolverRunResult func_run =
        SolverDriver().Run(functional, c.b, /*tol=*/0.0, tc.iters);
    EXPECT_EQ(func_run.iterations, tc.iters);
    // The functional clock counts iterations, not cycles.
    EXPECT_EQ(functional.clock(), static_cast<Cycle>(tc.iters));

    // The cycle engine must agree at every host-thread count (its
    // parallel sharding is itself bit-deterministic).
    for (const std::int32_t threads : {1, 2, 8}) {
        SCOPED_TRACE("sim_threads=" + std::to_string(threads));
        SimConfig cfg = c.cfg;
        cfg.sim_threads = threads;
        cfg.sim_parallel_grain = 1;
        Machine machine(cfg, &c.program);
        const SolverRunResult cycle_run =
            SolverDriver().Run(machine, c.b, /*tol=*/0.0, tc.iters);
        ExpectNumericsIdentical(func_run, cycle_run);
    }
}

// gtest prints each case's raw bytes, padding included, into its
// CTest name. A static table is zero-filled before its members are
// set, so the padding prints as 00 rather than as stack garbage that
// changes from build to build.
constexpr EngineCase kEngineCases[] = {
    {SolverKind::kPcg, MapperKind::kRoundRobin, "pcg_roundrobin", 4},
    {SolverKind::kPcg, MapperKind::kBlock, "pcg_block", 4},
    {SolverKind::kPcg, MapperKind::kAzul, "pcg_hypergraph", 4},
    {SolverKind::kJacobi, MapperKind::kRoundRobin, "jacobi_roundrobin", 6},
    {SolverKind::kJacobi, MapperKind::kBlock, "jacobi_block", 6},
    {SolverKind::kJacobi, MapperKind::kAzul, "jacobi_hypergraph", 6},
    {SolverKind::kBiCgStab, MapperKind::kRoundRobin, "bicgstab_roundrobin", 4},
    {SolverKind::kBiCgStab, MapperKind::kBlock, "bicgstab_block", 4},
    {SolverKind::kBiCgStab, MapperKind::kAzul, "bicgstab_hypergraph", 4},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, FunctionalEngineTest, ::testing::ValuesIn(kEngineCases),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
        return std::string(info.param.name);
    });

// ---- Golden cross-check ------------------------------------------------

/** FNV-1a over FP64 bit patterns — same hash as test_golden_traces. */
std::string
HashVector(const Vector& v)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double d : v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    std::ostringstream oss;
    oss << std::hex << h;
    return oss.str();
}

/** Pulls "key": "value" out of the flat golden JSON. */
std::string
ExtractField(const std::string& json, const std::string& key)
{
    const std::string marker = "\"" + key + "\": \"";
    const std::size_t at = json.find(marker);
    if (at == std::string::npos) {
        return "";
    }
    const std::size_t begin = at + marker.size();
    const std::size_t end = json.find('"', begin);
    return json.substr(begin, end - begin);
}

// The functional engine must reproduce the x/residual hashes the
// cycle engine committed to tests/golden/ — the strongest statement
// of cross-engine bit-identity, pinned to reviewable files.
TEST_P(FunctionalEngineTest, ReproducesGoldenHashes)
{
    const EngineCase& tc = GetParam();
    const std::string path =
        std::string(AZUL_GOLDEN_DIR) + "/" + tc.name + ".json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with AZUL_UPDATE_GOLDEN=1 "
           "./tests/test_golden_traces";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string want_x = ExtractField(buf.str(), "x_hash");
    const std::string want_r =
        ExtractField(buf.str(), "residual_hash");
    ASSERT_FALSE(want_x.empty()) << "no x_hash in " << path;

    const Compiled c = Build(tc.kind, tc.mapper, /*grid=*/4);
    FunctionalEngine functional(c.cfg, &c.program);
    const SolverRunResult run =
        SolverDriver().Run(functional, c.b, /*tol=*/0.0, tc.iters);
    EXPECT_EQ(HashVector(run.x), want_x) << tc.name;
    EXPECT_EQ(HashVector(Vector(run.residual_history.begin(),
                                run.residual_history.end())),
              want_r)
        << tc.name;
}

// ---- Budget semantics --------------------------------------------------

// Under the functional engine the clock ticks once per iteration, so
// RunBudget::max_cycles is an exact iteration allowance: max_cycles=k
// runs exactly k iterations and stops with kBudgetExhausted.
TEST(FunctionalEngineBudget, BudgetIsAnExactIterationCount)
{
    const Compiled c =
        Build(SolverKind::kPcg, MapperKind::kAzul, /*grid=*/4);
    FunctionalEngine engine(c.cfg, &c.program);
    RunBudget budget;
    budget.max_cycles = 2;
    const SolverRunResult run =
        SolverDriver().Run(engine, c.b, /*tol=*/0.0,
                           /*max_iters=*/50, budget);
    EXPECT_EQ(run.iterations, 2);
    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kBudgetExhausted);
    // history = prologue entry + one per completed iteration.
    EXPECT_EQ(run.residual_history.size(), 3u);
}

// A run that converges within the budget is not labeled exhausted.
TEST(FunctionalEngineBudget, ConvergenceWithinBudgetIsClean)
{
    const Compiled c =
        Build(SolverKind::kPcg, MapperKind::kAzul, /*grid=*/4);
    FunctionalEngine engine(c.cfg, &c.program);
    RunBudget budget;
    budget.max_cycles = 400;
    const SolverRunResult run = SolverDriver().Run(
        engine, c.b, /*tol=*/1e-8, /*max_iters=*/400, budget);
    ASSERT_TRUE(run.converged);
    EXPECT_EQ(run.failure, FailureKind::kNone);
    EXPECT_VECTOR_NEAR(SpMV(c.a, run.x), c.b, 1e-5);
}

// ---- End-to-end through AzulSystem -------------------------------------

// The whole pipeline (coloring, factorization, mapping, compile)
// under options.engine = functional must match the cycle-engine
// system bit for bit on the returned solution.
TEST(FunctionalEngineSystem, EndToEndMatchesCycleEngine)
{
    const CsrMatrix a = RandomGeometricLaplacian(400, 7.0, 3);
    const Vector b = RandomVector(a.rows(), 5);
    AzulOptions opts;
    opts.sim.grid_width = 4;
    opts.sim.grid_height = 4;
    opts.spec.tol = 1e-8;
    opts.spec.max_iters = 800;

    AzulSystem cycle_sys = *AzulSystem::Create(a, opts);
    const SolveReport cycle_rep = cycle_sys.Solve(b);
    ASSERT_TRUE(cycle_rep.run.converged);
    EXPECT_EQ(cycle_rep.engine, EngineKind::kCycle);

    opts.engine = EngineKind::kFunctional;
    AzulSystem func_sys = *AzulSystem::Create(a, opts);
    const SolveReport func_rep = func_sys.Solve(b);
    ASSERT_TRUE(func_rep.run.converged);
    EXPECT_EQ(func_rep.engine, EngineKind::kFunctional);

    EXPECT_EQ(func_rep.run.iterations, cycle_rep.run.iterations);
    ExpectBitEqual(func_rep.run.x, cycle_rep.run.x, "x");
    ExpectBitEqual(func_rep.run.residual_history,
                   cycle_rep.run.residual_history,
                   "residual_history");
}

} // namespace
} // namespace azul
