#include "core/azul_system.h"

#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "mapping/mapping_cache.h"
#include "sim/engine_functional.h"
#include "solver/coloring.h"
#include "util/logging.h"

namespace azul {

namespace {

double
SecondsSince(const std::chrono::steady_clock::time_point& start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Validates everything Create can reject without running the
 *  pipeline; OK means Init may proceed. */
Status
ValidateCreate(const CsrMatrix& a, const AzulOptions& options)
{
    std::ostringstream oss;
    if (a.rows() != a.cols()) {
        oss << "matrix must be square (" << a.rows() << "x"
            << a.cols() << ")";
        return InvalidArgument(oss.str());
    }
    if (a.rows() == 0) {
        return InvalidArgument("empty matrix");
    }
    if (options.sim.grid_width <= 0 || options.sim.grid_height <= 0) {
        oss << "tile grid must be positive ("
            << options.sim.grid_width << "x"
            << options.sim.grid_height << ")";
        return InvalidArgument(oss.str());
    }
    // The solver-related fields (method/precond compatibility,
    // tolerances, omegas) are validated as one unit by
    // SolverSpec::Validate on the merged spec — see Create.
    if (options.precomputed_mapping != nullptr &&
        options.precomputed_mapping->num_tiles !=
            options.sim.num_tiles()) {
        oss << "precomputed mapping targets "
            << options.precomputed_mapping->num_tiles
            << " tiles but the machine has "
            << options.sim.num_tiles();
        return InvalidArgument(oss.str());
    }
    if (options.engine == EngineKind::kFunctional &&
        options.sim.faults_enabled()) {
        return InvalidArgument(
            "engine=functional does not support fault injection "
            "(faults need the cycle-accurate timing model; use "
            "engine=cycle)");
    }
    // Warm-start knobs are never silently ignored (same policy as
    // functional+faults above): an x0 that cannot seed this system is
    // an error, not a no-op.
    if (!options.x0.empty() &&
        static_cast<Index>(options.x0.size()) != a.rows()) {
        oss << "x0 has length " << options.x0.size()
            << " but the matrix is " << a.rows() << "x" << a.cols();
        return InvalidArgument(oss.str());
    }
    if (!(options.drift_traffic_threshold >= 1.0)) {
        oss << "drift_traffic_threshold must be >= 1 (got "
            << options.drift_traffic_threshold << ")";
        return InvalidArgument(oss.str());
    }
    return OkStatus();
}

/** Instantiates the engine selected by the options (Create already
 *  rejected invalid combinations). */
std::unique_ptr<ExecutionEngine>
MakeEngine(const AzulOptions& options, const SolverProgram* program)
{
    if (options.engine == EngineKind::kFunctional) {
        return std::make_unique<FunctionalEngine>(options.sim,
                                                  program);
    }
    return std::make_unique<Machine>(options.sim, program);
}

/** True when the spec's method runs its preconditioner through the
 *  machine's SpTRSV kernels (needs a factored lower triangle). */
bool
NeedsFactor(const SolverSpec& spec)
{
    const bool trisolve_method =
        spec.method == SolverKind::kPcg ||
        spec.method == SolverKind::kBiCgStab ||
        spec.method == SolverKind::kGmres;
    return trisolve_method &&
           (spec.precond == PreconditionerKind::kIncompleteCholesky ||
            spec.precond ==
                PreconditionerKind::kSymmetricGaussSeidel ||
            spec.precond == PreconditionerKind::kSsor);
}

/**
 * Mixed-precision recovery cadence: under FP32 iterate storage, the
 * recurrence residual stalls near single-precision accuracy, so give
 * programs that can recompute the true residual from the FP64
 * anchors a periodic recovery interval unless the program already
 * chose one (docs/SOLVERS.md, "Mixed precision").
 */
void
ApplyPrecisionPolicy(SolverProgram& prog, const SolverSpec& spec)
{
    if (spec.precision == PrecisionMode::kFp32 &&
        !prog.residual_recompute.empty() &&
        prog.convergence.true_residual_interval == 0) {
        prog.convergence.true_residual_interval = 8;
    }
}

} // namespace

StatusOr<AzulSystem>
AzulSystem::Create(CsrMatrix a, AzulOptions options)
{
    AZUL_RETURN_IF_ERROR(ValidateCreate(a, options));
    AZUL_RETURN_IF_ERROR(options.spec.Validate());
    AzulSystem sys;
    sys.options_ = std::move(options);
    // The working precision rides into the engines on SimConfig.
    sys.options_.sim.precision = sys.options_.spec.precision;
    try {
        sys.Init(std::move(a));
    } catch (const AzulError& e) {
        // The pipeline's own validation tripped on user input the
        // upfront checks cannot see (e.g. a structurally invalid
        // precomputed mapping, a zero Jacobi diagonal).
        return InvalidArgument(e.what());
    }
    if (sys.options_.strict_sram_fit) {
        const SramUsage usage = sys.sram_usage();
        if (!usage.fits) {
            std::ostringstream oss;
            oss << "problem exceeds per-tile SRAM: data="
                << usage.max_data_bytes << " B, accum="
                << usage.max_accum_bytes << " B (configured "
                << sys.options_.sim.data_sram_kb << "+"
                << sys.options_.sim.accum_sram_kb << " KB)";
            return ResourceExhausted(oss.str());
        }
    }
    return sys;
}

void
AzulSystem::Init(CsrMatrix a)
{
    // 0. Warm-start bookkeeping: the structure hash is taken in the
    // caller's row order (permutation-independent), so it can be
    // compared across restarts and against incoming matrices.
    structure_hash_ = StructureHash(a);
    if (!options_.x0.empty()) {
        last_x_ = options_.x0; // validated by Create
        x0_pending_ = true;
    }

    // 1. Coloring + permutation preprocessing.
    if (options_.color_and_permute) {
        ColoredMatrix colored = ColorAndPermute(a);
        a_ = std::move(colored.a);
        perm_ = std::move(colored.perm);
        AZUL_LOG(kInfo) << "colored with " << colored.num_colors
                        << " colors";
    } else {
        a_ = std::move(a);
        perm_ = Permutation(a_.rows());
    }

    // 2. Preconditioner factorization for the trisolve-based kinds
    // (PCG, BiCGStab and GMRES all accept them; kJacobi is its own
    // stationary method — the spec validation enforced precond=none).
    const SolverSpec& spec = options_.spec;
    const bool factored = NeedsFactor(spec);
    if (factored) {
        const auto precond =
            MakePreconditioner(spec.precond, a_, spec.ssor_omega);
        l_ = *precond->lower_factor();
    }

    // 3. Data mapping.
    MappingProblem prob;
    prob.a = &a_;
    prob.l = factored ? &l_ : nullptr;
    if (options_.precomputed_mapping != nullptr) {
        mapping_ = *options_.precomputed_mapping;
        mapping_.Validate(prob);
    } else {
        AzulMapperOptions mopts = options_.azul_mapper;
        mopts.grid_width = options_.sim.grid_width;
        mopts.grid_height = options_.sim.grid_height;
        const auto mapper = MakeMapper(options_.mapper, mopts);
        MappingCache cache(options_.mapping_cache_dir);
        const std::uint64_t key =
            cache.enabled()
                ? MappingCacheKey(prob, mapper->name(),
                                  options_.sim.num_tiles(), mopts)
                : 0;
        const auto t0 = std::chrono::steady_clock::now();
        std::optional<DataMapping> cached =
            cache.enabled()
                ? cache.TryLoad(key, prob, options_.sim.num_tiles())
                : std::nullopt;
        if (cached.has_value()) {
            mapping_ = *std::move(cached);
            mapping_seconds_ = SecondsSince(t0);
            AZUL_LOG(kInfo) << "mapping cache hit ("
                            << cache.PathForKey(key) << ")";
        } else {
            mapping_ = mapper->Map(prob, options_.sim.num_tiles());
            mapping_seconds_ = SecondsSince(t0);
            mapping_.Validate(prob);
            if (cache.enabled()) {
                cache.Store(key, mapping_);
            }
            AZUL_LOG(kInfo) << "mapped with " << mapper->name()
                            << " in " << mapping_seconds_ << " s";
        }
        mapping_cache_hits_ = cache.hits();
        mapping_cache_misses_ = cache.misses();
    }
    // Drift baseline: what "good" traffic looks like for this
    // structure under this mapping (UpdateMatrix scales it by nnz).
    baseline_traffic_ = EstimateTraffic(prob, mapping_).total();
    baseline_nnz_ = a_.nnz();

    // 4. Dataflow compilation.
    {
        ProgramBuildInputs in;
        in.a = &a_;
        in.l = factored ? &l_ : nullptr;
        in.precond = spec.precond;
        in.mapping = &mapping_;
        in.geom = options_.sim.geometry();
        in.graph = options_.graph;
        in.jacobi_omega = spec.jacobi_omega;
        in.restart = spec.restart;
        const auto t0 = std::chrono::steady_clock::now();
        program_ = std::make_unique<SolverProgram>(
            BuildSolverProgram(spec.method, in));
        ApplyPrecisionPolicy(*program_, spec);
        compile_seconds_ = SecondsSince(t0);
    }

    // 5. Execution-engine instantiation (options_.engine).
    engine_ = MakeEngine(options_, program_.get());
    const SramUsage usage = sram_usage();
    if (!usage.fits) {
        AZUL_LOG(kWarn)
            << "problem exceeds per-tile SRAM: data="
            << usage.max_data_bytes << " B, accum="
            << usage.max_accum_bytes << " B (configured "
            << options_.sim.data_sram_kb << "+"
            << options_.sim.accum_sram_kb << " KB)";
    }
}

SramUsage
AzulSystem::sram_usage() const
{
    return ComputeSramUsage(*program_, options_.sim);
}

SolveReport
AzulSystem::Solve(const Vector& b)
{
    return Solve(b, RunBudget{});
}

SolveReport
AzulSystem::Solve(const Vector& b, const RunBudget& budget)
{
    // Auto warm-start: the session-resident last solution (seeded
    // from options().x0 before the first solve). An explicit x0 is
    // honored exactly once even with warm_start off — Create already
    // rejected any x0 it could not honor.
    const bool auto_warm =
        !last_x_.empty() && (options_.warm_start || x0_pending_);
    x0_pending_ = false;
    return Solve(b, budget, auto_warm ? last_x_ : Vector());
}

SolveReport
AzulSystem::Solve(const Vector& b, const RunBudget& budget,
                  const Vector& x0)
{
    AZUL_CHECK(static_cast<Index>(b.size()) == a_.rows());
    const bool warm = !x0.empty();
    AZUL_CHECK_MSG(!warm || x0.size() == b.size(),
                   "x0 length " << x0.size() << " != rhs length "
                                << b.size());
    const Vector b_perm = PermuteVector(b, perm_);
    const Vector x0_perm = warm ? PermuteVector(x0, perm_) : Vector();
    SolveReport report;
    report.engine = options_.engine;
    report.warm_started = warm;
    report.spec = options_.spec;
    report.run =
        SolverDriver().Run(*engine_, b_perm, options_.spec.tol,
                           options_.spec.max_iters, budget,
                           warm ? &x0_perm : nullptr);
    report.run.x = UnpermuteVector(report.run.x, perm_);
    last_x_ = report.run.x;
    x0_pending_ = false;
    if (warm) {
        ++warm_solves_;
    } else {
        ++cold_solves_;
    }
    report.mapping_reuses = mapping_reuses_;
    report.repartitions = repartitions_;
    report.gflops = report.run.Gflops(options_.sim.clock_ghz);
    report.peak_fraction = report.gflops / options_.sim.PeakGflops();
    report.mapping_seconds = mapping_seconds_;
    report.compile_seconds = compile_seconds_;
    report.mapping_cache_hits = mapping_cache_hits_;
    report.mapping_cache_misses = mapping_cache_misses_;
    report.solve_seconds = static_cast<double>(report.run.stats.cycles) /
                           (options_.sim.clock_ghz * 1e9);
    report.sram = sram_usage();
    report.power = ComputePower(report.run.stats, options_.sim);
    return report;
}

Status
AzulSystem::UpdateValues(const CsrMatrix& a_new)
{
    if (a_new.rows() != a_.rows() || a_new.nnz() != a_.nnz()) {
        std::ostringstream oss;
        oss << "UpdateValues requires the same sparsity pattern (got "
            << a_new.rows() << "x" << a_new.cols() << " with "
            << a_new.nnz() << " nnz; expected " << a_.rows() << "x"
            << a_.cols() << " with " << a_.nnz() << " nnz)";
        return InvalidArgument(oss.str());
    }
    CsrMatrix permuted = PermuteSymmetric(a_new, perm_);
    if (permuted.col_idx() != a_.col_idx() ||
        permuted.row_ptr() != a_.row_ptr()) {
        return InvalidArgument(
            "UpdateValues requires the same sparsity pattern");
    }
    try {
        a_ = std::move(permuted);
        const bool factored = l_.nnz() > 0;
        if (factored) {
            const auto precond =
                MakePreconditioner(options_.spec.precond, a_,
                                   options_.spec.ssor_omega);
            l_ = *precond->lower_factor();
        }
        // Recompile kernels in place: mapping and machine geometry
        // are unchanged, so only the coefficient tables change. The
        // warm state (last_x_, original row order) stays resident.
        RecompileForCurrentMatrix();
    } catch (const AzulError& e) {
        // Refactorization/recompilation rejected the new values
        // (e.g. a zero Jacobi diagonal).
        return InvalidArgument(e.what());
    }
    return OkStatus();
}

void
AzulSystem::RecompileForCurrentMatrix()
{
    const SolverSpec& spec = options_.spec;
    const bool factored = l_.nnz() > 0;
    ProgramBuildInputs in;
    in.a = &a_;
    in.l = factored ? &l_ : nullptr;
    in.precond = spec.precond;
    in.mapping = &mapping_;
    in.geom = options_.sim.geometry();
    in.graph = options_.graph;
    in.jacobi_omega = spec.jacobi_omega;
    in.restart = spec.restart;
    program_ = std::make_unique<SolverProgram>(
        BuildSolverProgram(spec.method, in));
    ApplyPrecisionPolicy(*program_, spec);
    engine_ = MakeEngine(options_, program_.get());
}

Status
AzulSystem::UpdateMatrix(const CsrMatrix& a_new)
{
    if (a_new.rows() != a_.rows() || a_new.cols() != a_.cols()) {
        std::ostringstream oss;
        oss << "UpdateMatrix requires the same dimensions (got "
            << a_new.rows() << "x" << a_new.cols() << "; expected "
            << a_.rows() << "x" << a_.cols() << ")";
        return InvalidArgument(oss.str());
    }
    const std::uint64_t new_hash = StructureHash(a_new);
    if (new_hash == structure_hash_) {
        // Same sparsity pattern: the cheap per-timestep path.
        return UpdateValues(a_new);
    }

    // Pattern drift: re-color, then decide between inheriting the
    // resident mapping and repartitioning from scratch
    // (docs/TIMESTEPPING.md). All throwing work happens on locals so
    // a rejected matrix leaves the system untouched.
    try {
        CsrMatrix a2;
        Permutation perm2;
        if (options_.color_and_permute) {
            ColoredMatrix colored = ColorAndPermute(a_new);
            a2 = std::move(colored.a);
            perm2 = std::move(colored.perm);
        } else {
            a2 = a_new;
            perm2 = Permutation(a_new.rows());
        }
        CsrMatrix l2;
        const bool factored = l_.nnz() > 0;
        if (factored) {
            const auto precond =
                MakePreconditioner(options_.spec.precond, a2,
                                   options_.spec.ssor_omega);
            l2 = *precond->lower_factor();
        }
        MappingProblem prob;
        prob.a = &a2;
        prob.l = factored ? &l2 : nullptr;

        // Inherit the old mapping onto the new structure: every row
        // keeps its vector home (identified through original row
        // order, so the two permutations cancel out), and each new
        // nonzero lands on its row's home tile — the natural delta
        // when per-nonzero identities did not survive the drift.
        DataMapping inherited;
        inherited.num_tiles = mapping_.num_tiles;
        const Index n = a2.rows();
        inherited.vec_tile.resize(static_cast<std::size_t>(n));
        for (Index i = 0; i < n; ++i) {
            const Index orig = perm2.NewToOld(i);
            inherited.vec_tile[static_cast<std::size_t>(i)] =
                mapping_.vec_tile[static_cast<std::size_t>(
                    perm_.OldToNew(orig))];
        }
        const auto row_home_tiles = [&inherited](const CsrMatrix& m) {
            std::vector<TileId> tiles(
                static_cast<std::size_t>(m.nnz()));
            for (Index i = 0; i < m.rows(); ++i) {
                for (Index k = m.row_ptr()[static_cast<std::size_t>(i)];
                     k < m.row_ptr()[static_cast<std::size_t>(i + 1)];
                     ++k) {
                    tiles[static_cast<std::size_t>(k)] =
                        inherited.vec_tile[static_cast<std::size_t>(i)];
                }
            }
            return tiles;
        };
        inherited.a_nnz_tile = row_home_tiles(a2);
        if (factored) {
            inherited.l_nnz_tile = row_home_tiles(l2);
        }
        inherited.Validate(prob);

        // Drift check: keep the inherited mapping while its estimated
        // traffic stays within the threshold of the nnz-scaled
        // baseline; beyond that the structure has drifted too far and
        // a fresh partition pays for itself.
        const double inherited_traffic =
            EstimateTraffic(prob, inherited).total();
        const double scaled_baseline =
            baseline_traffic_ * static_cast<double>(a2.nnz()) /
            static_cast<double>(std::max<Index>(baseline_nnz_, 1));
        if (inherited_traffic <=
            options_.drift_traffic_threshold * scaled_baseline) {
            mapping_ = std::move(inherited);
            ++mapping_reuses_;
            AZUL_LOG(kInfo)
                << "UpdateMatrix: pattern drift within threshold, "
                   "inherited mapping (traffic "
                << inherited_traffic << " <= "
                << options_.drift_traffic_threshold << " * "
                << scaled_baseline << ")";
        } else {
            AzulMapperOptions mopts = options_.azul_mapper;
            mopts.grid_width = options_.sim.grid_width;
            mopts.grid_height = options_.sim.grid_height;
            const auto mapper = MakeMapper(options_.mapper, mopts);
            const auto t0 = std::chrono::steady_clock::now();
            mapping_ = mapper->Map(prob, options_.sim.num_tiles());
            mapping_seconds_ = SecondsSince(t0);
            mapping_.Validate(prob);
            ++repartitions_;
            baseline_traffic_ = EstimateTraffic(prob, mapping_).total();
            baseline_nnz_ = a2.nnz();
            AZUL_LOG(kInfo)
                << "UpdateMatrix: drift beyond threshold, "
                   "repartitioned in "
                << mapping_seconds_ << " s";
        }

        a_ = std::move(a2);
        l_ = std::move(l2);
        perm_ = std::move(perm2);
        structure_hash_ = new_hash;
        RecompileForCurrentMatrix();
    } catch (const AzulError& e) {
        return InvalidArgument(e.what());
    }
    // The warm state survives: last_x_ lives in original row order,
    // independent of permutation and mapping.
    return OkStatus();
}

Status
AzulSystem::SeedWarmState(Vector x)
{
    if (static_cast<Index>(x.size()) != a_.rows()) {
        std::ostringstream oss;
        oss << "SeedWarmState: x has length " << x.size()
            << " but the matrix is " << a_.rows() << "x" << a_.cols();
        return InvalidArgument(oss.str());
    }
    last_x_ = std::move(x);
    x0_pending_ = false;
    return OkStatus();
}

SimStats
AzulSystem::RunKernelOnce(int matrix_kernel_index, const Vector& input)
{
    AZUL_CHECK(matrix_kernel_index >= 0 &&
               matrix_kernel_index <
                   static_cast<int>(program_->matrix_kernels.size()));
    const MatrixKernel& kernel =
        program_->matrix_kernels[static_cast<std::size_t>(
            matrix_kernel_index)];
    // machine() checks the engine kind: per-kernel cycle counts only
    // exist under the cycle engine.
    Machine& m = machine();
    m.LoadProblem(Vector(input.size(), 0.0));
    const Vector in_perm = PermuteVector(input, perm_);
    // Seed the kernel's input and rhs vectors.
    m.ScatterVector(kernel.input_vec, in_perm);
    if (kernel.rhs_vec != VecName::kCount) {
        m.ScatterVector(kernel.rhs_vec, in_perm);
    }
    return m.RunMatrixKernelStandalone(matrix_kernel_index);
}

} // namespace azul
