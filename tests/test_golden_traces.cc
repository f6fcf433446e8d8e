/**
 * @file
 * Golden-trace regression suite: runs 3 solvers x 3 mappings on fixed
 * seeds and compares the full deterministic outcome — a bit-exact hash
 * of the solution vector, the SolveReport JSON, and the SimStats
 * rendering — against checked-in JSON files in tests/golden/.
 *
 * Any engine change that alters cycle counts, op counts, message
 * traffic, FP results, or report formatting shows up here as a diff
 * against a reviewable file. To regenerate after an INTENDED change:
 *
 *     AZUL_UPDATE_GOLDEN=1 ./build/tests/test_golden_traces
 *
 * then inspect `git diff tests/golden/` before committing
 * (docs/TESTING.md "Golden traces").
 *
 * The traces hold FP64 values produced by plain IEEE arithmetic (the
 * build uses no -ffast-math / -march flags), so they are portable
 * across conforming x86-64/aarch64 toolchains.
 */
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/azul_system.h"
#include "core/solve_report.h"
#include "dataflow/program.h"
#include "mapping/mapper_factory.h"
#include "sim/machine.h"
#include "solver/ic0.h"
#include "sparse/generators.h"
#include "test_helpers.h"

#ifndef AZUL_GOLDEN_DIR
#error "AZUL_GOLDEN_DIR must point at the source-tree tests/golden/"
#endif

namespace azul {
namespace {

using azul::testing::RandomVector;

// SolverKind comes from dataflow/program.h (the public enum).

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

/** FNV-1a over the bit patterns of a vector: any FP64 change in any
 *  element changes the hash. */
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

std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += ch;
        }
    }
    return out;
}

/** The golden text for one configuration: pretty-ish JSON whose field
 *  values are all deterministic (no wall-clock, no pointers). */
std::string
RenderTrace(const std::string& name, const Compiled& c,
            const SolverRunResult& run)
{
    SolveReport report;
    report.run = run;
    report.gflops = run.Gflops(c.cfg.clock_ghz);
    report.solve_seconds = static_cast<double>(run.stats.cycles) /
                           (c.cfg.clock_ghz * 1e9);
    // Wall-clock fields (mapping_seconds, compile_seconds) stay 0:
    // they would make the trace non-reproducible.

    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"name\": \"" << name << "\",\n";
    oss << "  \"rows\": " << c.a.rows() << ",\n";
    oss << "  \"nnz\": " << c.a.nnz() << ",\n";
    oss << "  \"x_hash\": \"" << HashVector(run.x) << "\",\n";
    oss << "  \"residual_hash\": \""
        << HashVector(Vector(run.residual_history.begin(),
                             run.residual_history.end()))
        << "\",\n";
    oss << "  \"report\": \"" << JsonEscape(report.ToJson())
        << "\",\n";
    oss << "  \"stats\": \"" << JsonEscape(run.stats.ToString())
        << "\"\n";
    oss << "}\n";
    return oss.str();
}

std::string
GoldenPath(const std::string& name)
{
    return std::string(AZUL_GOLDEN_DIR) + "/" + name + ".json";
}

bool
UpdateGoldenRequested()
{
    const char* env = std::getenv("AZUL_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

struct GoldenCase {
    SolverKind kind;
    MapperKind mapper;
    const char* name;
    /** tol=0 fixed-iteration run: a pure throughput trace. */
    Index iters;
};

class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, MatchesCheckedInTrace)
{
    const GoldenCase& tc = GetParam();
    const Compiled c = Build(tc.kind, tc.mapper, /*grid=*/4);

    Machine machine(c.cfg, &c.program);
    const SolverRunResult run =
        SolverDriver().Run(machine, c.b, /*tol=*/0.0, tc.iters);
    const std::string got = RenderTrace(tc.name, c, run);

    const std::string path = GoldenPath(tc.name);
    if (UpdateGoldenRequested()) {
        std::filesystem::create_directories(AZUL_GOLDEN_DIR);
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with AZUL_UPDATE_GOLDEN=1 "
           "./tests/test_golden_traces";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "golden trace drift in " << tc.name
        << ". If the change is intended, regenerate with "
           "AZUL_UPDATE_GOLDEN=1 and review `git diff tests/golden/`.";
}

// gtest prints each case's raw bytes, padding included, into its
// CTest name. A static table is zero-filled before its members are
// set, so the padding prints as 00 rather than as stack garbage that
// changes from build to build.
constexpr GoldenCase kGoldenCases[] = {
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
    Programs, GoldenTraceTest, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        return std::string(info.param.name);
    });

// ---- Multi-step warm session golden -----------------------------------------
//
// One warm-start session driven through value drift and structure
// drift (docs/TIMESTEPPING.md), rendered step by step. Catches any
// drift in the warm prologue numerics, the session counters, or the
// report schema across the whole time-stepping pipeline.

/** Deterministic structure drift: two extra symmetric couplings. */
CsrMatrix
WithContactEdges(const CsrMatrix& a)
{
    CooMatrix coo = a.ToCoo();
    const Index pairs[2][2] = {{3, 200}, {57, 140}};
    for (const auto& p : pairs) {
        coo.Add(p[0], p[1], -0.5);
        coo.Add(p[1], p[0], -0.5);
        coo.Add(p[0], p[0], 0.5);
        coo.Add(p[1], p[1], 0.5);
    }
    coo.Canonicalize();
    return CsrMatrix::FromCoo(coo);
}

TEST(GoldenWarmSession, MatchesCheckedInTrace)
{
    AzulOptions opts;
    opts.sim.grid_width = 4;
    opts.sim.grid_height = 4;
    opts.spec.tol = 0.0; // fixed-iteration throughput trace
    opts.spec.max_iters = 4;
    opts.warm_start = true;

    const CsrMatrix base = Grid2dLaplacian(16, 16);
    StatusOr<AzulSystem> sys = AzulSystem::Create(base, opts);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    const Vector b = RandomVector(base.rows(), 3);

    CsrMatrix scaled = base;
    for (double& v : scaled.mutable_vals()) {
        v *= 1.05;
    }
    const CsrMatrix drifted = WithContactEdges(scaled);

    std::ostringstream oss;
    oss << "{\n  \"name\": \"warm_session\",\n  \"steps\": [\n";
    for (int step = 0; step < 4; ++step) {
        const char* update = "none";
        if (step == 1) {
            update = "values";
            ASSERT_TRUE(sys->UpdateValues(scaled).ok());
        } else if (step == 2) {
            update = "pattern";
            ASSERT_TRUE(sys->UpdateMatrix(drifted).ok());
        } else if (step == 3) {
            update = "values";
            CsrMatrix back = drifted;
            for (double& v : back.mutable_vals()) {
                v *= 0.95;
            }
            ASSERT_TRUE(sys->UpdateValues(back).ok());
        }
        SolveReport report = sys->Solve(b);
        // Wall-clock fields would make the trace non-reproducible.
        report.mapping_seconds = 0.0;
        report.compile_seconds = 0.0;
        oss << "    {\n";
        oss << "      \"step\": " << step << ",\n";
        oss << "      \"update\": \"" << update << "\",\n";
        oss << "      \"warm\": "
            << (report.warm_started ? "true" : "false") << ",\n";
        oss << "      \"x_hash\": \"" << HashVector(report.run.x)
            << "\",\n";
        oss << "      \"report\": \"" << JsonEscape(report.ToJson())
            << "\"\n";
        oss << "    }" << (step + 1 < 4 ? "," : "") << "\n";
    }
    oss << "  ],\n";
    oss << "  \"warm_solves\": " << sys->warm_solves() << ",\n";
    oss << "  \"cold_solves\": " << sys->cold_solves() << ",\n";
    oss << "  \"mapping_reuses\": " << sys->mapping_reuses() << ",\n";
    oss << "  \"repartitions\": " << sys->repartitions() << "\n";
    oss << "}\n";
    const std::string got = oss.str();

    const std::string path = GoldenPath("warm_session");
    if (UpdateGoldenRequested()) {
        std::filesystem::create_directories(AZUL_GOLDEN_DIR);
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with AZUL_UPDATE_GOLDEN=1 "
           "./tests/test_golden_traces";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "golden trace drift in warm_session. If the change is "
           "intended, regenerate with AZUL_UPDATE_GOLDEN=1 and "
           "review `git diff tests/golden/`.";
}

// The golden traces must be thread-count independent, or CI machines
// with different core counts would disagree with the checked-in files.
TEST(GoldenTraceDeterminism, TraceTextIsThreadCountIndependent)
{
    const Compiled c = Build(SolverKind::kPcg, MapperKind::kAzul, 4);

    std::string first;
    for (const std::int32_t threads : {1, 4}) {
        SimConfig cfg = c.cfg;
        cfg.sim_threads = threads;
        cfg.sim_parallel_grain = 1;
        Machine machine(cfg, &c.program);
        const SolverRunResult run =
            SolverDriver().Run(machine, c.b, 0.0, 3);
        const std::string text = RenderTrace("thread-check", c, run);
        if (first.empty()) {
            first = text;
        } else {
            EXPECT_EQ(text, first);
        }
    }
}

} // namespace
} // namespace azul
