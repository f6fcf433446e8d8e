/**
 * @file
 * Mesh (no-wraparound) topology ablation tests: routing never wraps,
 * distances grow, and the machine stays functionally correct.
 */
#include <gtest/gtest.h>

#include "dataflow/program.h"
#include "mapping/mapper_factory.h"
#include "sim/machine.h"
#include "sim/router.h"
#include "solver/ic0.h"
#include "solver/spmv.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

TEST(Mesh, HopDistanceHasNoWrap)
{
    const TorusGeometry mesh{8, 8, /*wrap=*/false};
    const TorusGeometry torus{8, 8, /*wrap=*/true};
    const std::int32_t a = mesh.TileAt(0, 0);
    const std::int32_t b = mesh.TileAt(7, 0);
    EXPECT_EQ(mesh.HopDistance(a, b), 7);
    EXPECT_EQ(torus.HopDistance(a, b), 1);
}

TEST(Mesh, RoutingNeverWraps)
{
    const TorusGeometry mesh{8, 8, false};
    // From (0,0) to (7,7): every step must go east or south.
    std::int32_t cur = mesh.TileAt(0, 0);
    const std::int32_t dest = mesh.TileAt(7, 7);
    int hops = 0;
    while (cur != dest) {
        const RouteStep step = NextHop(mesh, cur, dest);
        EXPECT_TRUE(step.dir == PortDir::kEast ||
                    step.dir == PortDir::kSouth);
        cur = step.next_tile;
        ASSERT_LT(++hops, 20);
    }
    EXPECT_EQ(hops, 14);
}

TEST(Mesh, TreeEdgesStayInGrid)
{
    const TorusGeometry mesh{8, 8, false};
    std::vector<std::int32_t> members;
    for (std::int32_t t = 0; t < 64; t += 5) {
        members.push_back(t);
    }
    const TreeTopology tree = BuildTorusTree(mesh, 36, members);
    for (std::size_t i = 1; i < tree.size(); ++i) {
        // Every edge's hop distance under the mesh metric is finite
        // and equals the |dx|+|dy| of actual coordinates.
        const std::int32_t p =
            tree.tiles[static_cast<std::size_t>(tree.parent[i])];
        const std::int32_t c = tree.tiles[i];
        EXPECT_EQ(mesh.HopDistance(p, c),
                  std::abs(mesh.XOf(p) - mesh.XOf(c)) +
                      std::abs(mesh.YOf(p) - mesh.YOf(c)));
    }
}

TEST(Mesh, MachineFunctionallyCorrect)
{
    const CsrMatrix a = RandomGeometricLaplacian(250, 7.0, 43);
    const CsrMatrix l = IncompleteCholesky(a);
    SimConfig cfg;
    cfg.grid_width = 4;
    cfg.grid_height = 4;
    cfg.torus = false;
    MappingProblem prob;
    prob.a = &a;
    prob.l = &l;
    const DataMapping mapping =
        MakeMapper(MapperKind::kAzul)->Map(prob, cfg.num_tiles());
    ProgramBuildInputs in;
    in.a = &a;
    in.l = &l;
    in.precond = PreconditionerKind::kIncompleteCholesky;
    in.mapping = &mapping;
    in.geom = cfg.geometry();
    const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
    Machine machine(cfg, &program);
    const Vector b = azul::testing::RandomVector(a.rows(), 3);
    const SolverRunResult run =
        SolverDriver().Run(machine, b, 1e-8, 500);
    ASSERT_TRUE(run.converged);
    EXPECT_VECTOR_NEAR(SpMV(a, run.x), b, 1e-6);
}

TEST(Mesh, TorusFasterOnWrapHeavyTraffic)
{
    // Round-Robin mapping spreads traffic everywhere; the torus's
    // wraparound shortcuts should win cycles.
    const CsrMatrix a = RandomGeometricLaplacian(400, 8.0, 47);
    const CsrMatrix l = IncompleteCholesky(a);
    const auto cycles = [&](bool torus) {
        SimConfig cfg;
        cfg.grid_width = 4;
        cfg.grid_height = 4;
        cfg.torus = torus;
        MappingProblem prob;
        prob.a = &a;
        prob.l = &l;
        const DataMapping mapping =
            MakeMapper(MapperKind::kRoundRobin)
                ->Map(prob, cfg.num_tiles());
        ProgramBuildInputs in;
        in.a = &a;
        in.l = &l;
        in.precond = PreconditionerKind::kIncompleteCholesky;
        in.mapping = &mapping;
        in.geom = cfg.geometry();
        const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
        Machine machine(cfg, &program);
        const SolverRunResult run = SolverDriver().Run(
            machine, azul::testing::RandomVector(a.rows(), 5), 0.0, 5);
        return run.stats.cycles;
    };
    EXPECT_LT(cycles(true), cycles(false));
}

TEST(Mesh, TopologyMismatchRejected)
{
    const CsrMatrix a = RandomGeometricLaplacian(150, 6.0, 51);
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
    in.geom = cfg.geometry(); // torus program
    const SolverProgram program = BuildSolverProgram(SolverKind::kPcg, in);
    SimConfig mesh_cfg = cfg;
    mesh_cfg.torus = false;
    EXPECT_THROW(Machine(mesh_cfg, &program), AzulError);
}

} // namespace
} // namespace azul
