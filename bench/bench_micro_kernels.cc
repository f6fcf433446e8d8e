/**
 * @file
 * Microbenchmarks of the hot simulation kernels behind the SIMD /
 * arena / gain-bucket optimizations (docs/PERFORMANCE.md):
 *
 *   functional_spmv_replay  FunctionalEngine SpMV tape replay
 *   functional_iteration    one full functional PCG iteration
 *   cycle_spmv              cycle-engine SpMV matrix kernel
 *   cycle_axpy              cycle-engine elementwise axpy sweep
 *   cycle_dot               cycle-engine dot + reduce/broadcast
 *   fm_refine               gain-bucket FM bisection refinement
 *
 * Each kernel reports host nanoseconds per work item (nnz, vector
 * slot, or hypergraph pin) and GFLOP/s where the kernel has a nominal
 * FLOP count. `--json=FILE` writes the same table as JSON for
 * scripts/check_bench_regression.py, which compares a run against the
 * checked-in bench/baseline_micro_kernels.json and exits non-zero on
 * a regression (the perf gate wired into CI's perf-smoke job).
 *
 * Flags: --scale=F --grid=N --threads=N --quick --json=FILE
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dataflow/program.h"
#include "mapping/azul_mapper.h"
#include "mapping/fm_refine.h"
#include "mapping/mapper_factory.h"
#include "sim/engine_functional.h"
#include "sim/machine.h"
#include "solver/coloring.h"
#include "solver/ic0.h"
#include "sparse/generators.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace azul;

namespace {

struct MicroArgs {
    double scale = 1.0;
    std::int32_t grid = 8;
    std::int32_t threads = 0; //!< 0 = resolved from env below
    bool quick = false;
    std::string json_path; //!< empty = no JSON emission

    static MicroArgs
    Parse(int argc, char** argv)
    {
        MicroArgs args;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--scale=", 0) == 0) {
                args.scale = std::stod(arg.substr(8));
            } else if (arg.rfind("--grid=", 0) == 0) {
                args.grid =
                    static_cast<std::int32_t>(std::stol(arg.substr(7)));
            } else if (arg.rfind("--threads=", 0) == 0) {
                args.threads = static_cast<std::int32_t>(
                    std::stol(arg.substr(10)));
            } else if (arg.rfind("--json=", 0) == 0) {
                args.json_path = arg.substr(7);
            } else if (arg == "--quick") {
                args.quick = true;
                args.scale = 0.1;
                args.grid = 4;
            } else {
                std::fprintf(stderr, "unknown argument '%s'\n",
                             arg.c_str());
                std::exit(2);
            }
        }
        if (args.threads <= 0) {
            args.threads = SimThreadsFromEnv(1);
        }
        return args;
    }
};

double
SecondsSince(const std::chrono::steady_clock::time_point& t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One measured kernel row. */
struct KernelResult {
    std::string name;
    Index items = 0;       //!< work items per repetition
    long long reps = 0;    //!< measured repetitions
    double ns_per_item = 0.0;
    double gflops = 0.0;   //!< 0 when the kernel has no FLOP count
};

/**
 * Times `run` (a no-argument callable executing one repetition).
 * One untimed warmup repetition first — it records the functional
 * tape / fills kernel caches, so the measurement sees steady state —
 * then enough repetitions to fill a minimum measurement window.
 */
template <typename F>
KernelResult
MeasureKernel(const char* name, Index items, double flops_per_rep,
              bool quick, F&& run)
{
    run(); // warmup: tape recording, cache fills, page faults

    auto t0 = std::chrono::steady_clock::now();
    run();
    const double once = std::max(SecondsSince(t0), 1e-9);

    const double min_window = quick ? 0.02 : 0.25;
    const long long reps = std::clamp<long long>(
        static_cast<long long>(std::ceil(min_window / once)), 1, 5000);

    t0 = std::chrono::steady_clock::now();
    for (long long i = 0; i < reps; ++i) {
        run();
    }
    const double secs = std::max(SecondsSince(t0), 1e-12);

    KernelResult r;
    r.name = name;
    r.items = items;
    r.reps = reps;
    r.ns_per_item = secs * 1e9 /
                    (static_cast<double>(reps) *
                     static_cast<double>(std::max<Index>(items, 1)));
    r.gflops = flops_per_rep <= 0.0
                   ? 0.0
                   : flops_per_rep * static_cast<double>(reps) /
                         secs / 1e9;
    return r;
}

Vector
RandomVec(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    Vector v(static_cast<std::size_t>(n));
    for (double& x : v) {
        x = rng.UniformDouble(-1.0, 1.0);
    }
    return v;
}

void
WriteJson(const std::string& path, const MicroArgs& args,
          const std::vector<KernelResult>& rows)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write --json file '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
    std::fprintf(f,
                 "  \"config\": {\"scale\": %.6g, \"grid\": %d, "
                 "\"threads\": %d, \"quick\": %s},\n",
                 args.scale, args.grid, args.threads,
                 args.quick ? "true" : "false");
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const KernelResult& r = rows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"items\": %lld, "
                     "\"reps\": %lld, \"ns_per_item\": %.6g, "
                     "\"gflops\": %.6g}%s\n",
                     r.name.c_str(), static_cast<long long>(r.items),
                     r.reps, r.ns_per_item, r.gflops,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char** argv)
{
    const MicroArgs args = MicroArgs::Parse(argc, argv);
    std::printf("==================================================="
                "=========================\n");
    std::printf("micro-kernels: host throughput of the hot "
                "simulation paths\n");
    std::printf("config: scale=%.2f grid=%dx%d host-threads=%d\n",
                args.scale, args.grid, args.grid, args.threads);
    std::printf("---------------------------------------------------"
                "-------------------------\n");

    // ---- Shared problem setup ------------------------------------------
    const Index n = std::max<Index>(
        256, static_cast<Index>(std::lround(32768.0 * args.scale)));
    const CsrMatrix a0 = RandomGeometricLaplacian(n, 9.0, 42);
    const ColoredMatrix cm = ColorAndPermute(a0);
    const CsrMatrix l = IncompleteCholesky(cm.a);
    MappingProblem prob;
    prob.a = &cm.a;
    prob.l = &l;
    const std::int32_t tiles = args.grid * args.grid;
    const DataMapping mapping =
        MakeMapper(MapperKind::kBlock)->Map(prob, tiles);

    ProgramBuildInputs in;
    in.a = &cm.a;
    in.l = &l;
    in.precond = PreconditionerKind::kIncompleteCholesky;
    in.mapping = &mapping;
    in.geom = TorusGeometry{args.grid, args.grid};
    const SolverProgram prog = BuildSolverProgram(SolverKind::kPcg, in);

    SimConfig cfg;
    cfg.grid_width = args.grid;
    cfg.grid_height = args.grid;
    cfg.sim_threads = args.threads;

    const Vector b = RandomVec(cm.a.rows(), 0xb0b);
    const Vector p = RandomVec(cm.a.rows(), 0x9e3);
    const double spmv_flops = 2.0 * static_cast<double>(cm.a.nnz());

    std::vector<KernelResult> rows;

    // ---- Functional-engine kernels -------------------------------------
    {
        FunctionalEngine eng(cfg, &prog);
        eng.LoadProblem(b);
        eng.ScatterVector(VecName::kP, p);
        // Kernel 0 of every program is the SpMV A*p. The warmup rep
        // inside MeasureKernel records the tape; the timed reps are
        // pure replay — the serving-path inner loop.
        rows.push_back(MeasureKernel(
            "functional_spmv_replay", cm.a.nnz(), spmv_flops,
            args.quick,
            [&] { eng.RunMatrixKernelStandalone(0); }));
    }
    {
        FunctionalEngine eng(cfg, &prog);
        eng.LoadProblem(b);
        eng.RunPrologue();
        rows.push_back(MeasureKernel(
            "functional_iteration", cm.a.nnz(),
            prog.FlopsPerIteration(), args.quick,
            [&] { eng.RunIteration(); }));
    }

    // ---- Cycle-engine kernels ------------------------------------------
    {
        Machine machine(cfg, &prog);
        machine.LoadProblem(b);
        machine.ScatterVector(VecName::kP, p);
        rows.push_back(MeasureKernel(
            "cycle_spmv", cm.a.nnz(), spmv_flops, args.quick,
            [&] { machine.RunMatrixKernelStandalone(0); }));

        const VectorKernel axpy =
            MakeAxpyConst(VecName::kX, 0.5, VecName::kP);
        rows.push_back(MeasureKernel(
            "cycle_axpy", cm.a.rows(),
            2.0 * static_cast<double>(cm.a.rows()), args.quick,
            [&] { machine.RunVectorKernelForTest(axpy); }));

        const VectorKernel dot =
            MakeDot(ScalarReg::kRr, VecName::kP, VecName::kP);
        rows.push_back(MeasureKernel(
            "cycle_dot", cm.a.rows(),
            2.0 * static_cast<double>(cm.a.rows()), args.quick,
            [&] { machine.RunVectorKernelForTest(dot); }));
    }

    // ---- FM refinement --------------------------------------------------
    {
        const AzulMapper mapper{AzulMapperOptions{}};
        Hypergraph hg = mapper.BuildHypergraph(prob);
        hg.BuildIncidence();
        std::vector<std::int32_t> part0(
            static_cast<std::size_t>(hg.NumVertices()));
        for (std::size_t v = 0; v < part0.size(); ++v) {
            part0[v] = static_cast<std::int32_t>(v & 1);
        }
        BisectionConstraints cons;
        for (int c = 0; c < hg.num_constraints(); ++c) {
            const Weight cap = static_cast<Weight>(
                std::ceil(static_cast<double>(hg.TotalWeight(c)) *
                          0.5 * 1.08));
            cons.max_part0.push_back(cap);
            cons.max_part1.push_back(cap);
        }
        std::vector<std::int32_t> part;
        rows.push_back(MeasureKernel(
            "fm_refine", hg.NumPins(), 0.0, args.quick, [&] {
                part = part0; // each rep refines the same start
                FmRefineBisection(hg, part, cons);
            }));
    }

    // ---- Report ---------------------------------------------------------
    std::printf("%-24s %12s %8s %12s %10s\n", "kernel", "items",
                "reps", "ns/item", "GFLOP/s");
    std::vector<double> ns_values;
    for (const KernelResult& r : rows) {
        ns_values.push_back(r.ns_per_item);
        if (r.gflops > 0.0) {
            std::printf("%-24s %12lld %8lld %12.3f %10.3f\n",
                        r.name.c_str(),
                        static_cast<long long>(r.items), r.reps,
                        r.ns_per_item, r.gflops);
        } else {
            std::printf("%-24s %12lld %8lld %12.3f %10s\n",
                        r.name.c_str(),
                        static_cast<long long>(r.items), r.reps,
                        r.ns_per_item, "-");
        }
    }
    std::printf("\n%-16s gmean = %.4g ns/item\n", "micro-kernels",
                GeoMean(ns_values));

    if (!args.json_path.empty()) {
        WriteJson(args.json_path, args, rows);
        std::printf("json written to %s\n", args.json_path.c_str());
    }
    return 0;
}
