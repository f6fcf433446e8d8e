/**
 * @file
 * Top-level configuration of an Azul system instance: machine
 * parameters, preprocessing (coloring), preconditioner, mapping
 * strategy, and compiler options.
 */
#ifndef AZUL_CORE_AZUL_CONFIG_H_
#define AZUL_CORE_AZUL_CONFIG_H_

#include <cstdint>
#include <string>

#include "dataflow/program.h"
#include "dataflow/spmv_graph.h"
#include "mapping/mapper_factory.h"
#include "sim/config.h"
#include "solver/preconditioner.h"
#include "util/common.h"
#include "util/status.h"

namespace azul {

/**
 * What to solve and how: iterative method, preconditioner, working
 * precision, and convergence controls, validated as one unit by
 * AzulSystem::Create (docs/SOLVERS.md).
 */
struct SolverSpec {
    /** Iterative method the system compiles and runs. */
    SolverKind method = SolverKind::kPcg;
    /** Damping weight of the kJacobi method (ignored otherwise);
     *  must lie in (0, 1]. */
    double jacobi_omega = 2.0 / 3.0;
    /** Restart length m of GMRES(m) (ignored otherwise); every m
     *  inner steps the machine restarts from the true residual. */
    Index restart = 30;
    /**
     * Preconditioner; PCG with IC(0) is the paper's evaluation.
     * kPcg, kBiCgStab and kGmres accept any preconditioner; kJacobi
     * is its own stationary method and requires kIdentity.
     */
    PreconditionerKind precond =
        PreconditionerKind::kIncompleteCholesky;
    /** Relaxation weight when precond = kSsor; must lie in (0, 2). */
    double ssor_omega = 1.0;
    /**
     * Working precision of the machine's iterate storage
     * (sim/config.h PrecisionMode). kFp32 halves vector SRAM and
     * doubles elementwise sweep throughput; the FP64 anchors x and b
     * plus the periodic true-residual recompute bound the accuracy
     * loss (docs/SOLVERS.md, "Mixed precision").
     */
    PrecisionMode precision = PrecisionMode::kFp64;
    /** Relative residual tolerance ||r|| <= tol * ||b||. */
    double tol = 1e-8;
    /** Driver iteration cap; for kGmres each driver iteration is one
     *  restart cycle of `restart` inner steps. */
    Index max_iters = 1000;

    /**
     * Checks the spec as one unit; returns kInvalidArgument with a
     * field-specific message on the first violation. AzulSystem::
     * Create calls this, so standalone use is only needed to validate
     * ahead of time.
     */
    Status Validate() const;

    /** "method=pcg, precond=ic0, precision=fp64, tol=1e-08, ...". */
    std::string ToString() const;
};

/** Everything needed to instantiate an AzulSystem. */
struct AzulOptions {
    /** Machine parameters (Table III, scaled by default). */
    SimConfig sim;
    /**
     * Execution engine behind the solve (sim/execution_engine.h).
     * kCycle (default) is the cycle-accurate Machine — ground truth
     * for all paper figures. kFunctional runs the same compiled
     * program with bit-identical FP64 results but no timing model
     * (serving fast path); it is incompatible with fault injection
     * (Create rejects engine=functional + sim.faults_enabled()).
     */
    EngineKind engine = EngineKind::kCycle;
    /**
     * What to solve and how (method, preconditioner, precision,
     * convergence); validated as one unit by AzulSystem::Create.
     */
    SolverSpec spec;
    /** Graph-coloring preprocessing (Sec II-A); on by default, as in
     *  all the paper's results. */
    bool color_and_permute = true;
    /** Data-mapping strategy (Fig 23). */
    MapperKind mapper = MapperKind::kAzul;
    AzulMapperOptions azul_mapper;
    /**
     * Precomputed mapping (e.g. from mapping_io's LoadMapping),
     * skipping the mapping step entirely — the cross-run half of the
     * paper's Sec VI-D amortization argument. Must have been computed
     * for the same matrix under the same preprocessing settings; the
     * pointee must outlive system construction. nullptr = compute.
     */
    const DataMapping* precomputed_mapping = nullptr;
    /**
     * Directory of the persistent mapping cache (mapping_cache.h).
     * When set, the mapping step first looks up the content-hash key
     * of (matrix structure, mapper, options) and reuses a stored
     * mapping on a hit; misses compute and persist. Empty string
     * disables caching; ApplyEnvOverrides fills it from the
     * AZUL_MAPPING_CACHE environment variable when empty. Ignored
     * when precomputed_mapping is given.
     */
    std::string mapping_cache_dir;
    /** Kernel-compiler options (multicast trees vs point-to-point). */
    GraphOptions graph;
    /**
     * Time-stepping controls (docs/TIMESTEPPING.md). When warm_start
     * is true, each Solve after the first starts from the session's
     * last solution (r = b - A x0 via the program's warm prologue)
     * instead of x = 0; the first solve — and any solve after warm
     * state was invalidated — falls back to cold cleanly.
     */
    bool warm_start = false;
    /**
     * Explicit initial guess for the first solve, in the caller's
     * original row order. Empty (default) means x0 = 0. A non-empty
     * x0 whose length differs from the matrix dimension is rejected
     * by AzulSystem::Create with kInvalidArgument — never silently
     * ignored.
     */
    Vector x0;
    /**
     * Structure-drift tolerance for UpdateMatrix: when the sparsity
     * pattern changes, the old mapping is inherited onto the new
     * structure and kept as long as its estimated NoC traffic stays
     * within this factor of the nnz-scaled baseline; beyond it, the
     * system repartitions from scratch. Must be >= 1
     * (AzulSystem::Create rejects smaller values).
     */
    double drift_traffic_threshold = 1.25;
    /**
     * When true, AzulSystem::Create fails with RESOURCE_EXHAUSTED if
     * the compiled program does not fit the per-tile scratchpads.
     * When false (default), overflow only logs a warning — the
     * simulator models the spill penalty and many sweeps
     * oversubscribe on purpose.
     */
    bool strict_sram_fit = false;

    std::string ToString() const;
};

/**
 * Applies the documented environment overrides to `opts` — the single
 * consolidated entry point for env parsing (benches, tools, and the
 * service route through here). Precedence is flags > env > defaults:
 * call this on a default-constructed options struct *before* applying
 * command-line flags, so explicit flags win.
 *
 *   AZUL_SIM_THREADS    host threads for the simulation engine and
 *                       the parallel partitioner (results are
 *                       bit-identical at any thread count)
 *   AZUL_ENGINE         execution engine, "cycle" or "functional"
 *                       (ParseEngineKind; anything else is ignored)
 *   AZUL_SOLVER         iterative method, "jacobi"/"pcg"/"bicgstab"/
 *                       "gmres" (ParseSolverKind; sets spec.method)
 *   AZUL_PRECOND        preconditioner, "none"/"jacobi"/"symgs"/
 *                       "ssor"/"ic0" (ParsePreconditionerKind; sets
 *                       spec.precond)
 *   AZUL_PRECISION      iterate storage precision, "fp64" or "fp32"
 *                       (ParsePrecisionMode; sets spec.precision)
 *   AZUL_MAPPING_CACHE  persistent mapping-cache directory
 *   AZUL_FAULTS         fault-injection spec (ParseFaultSpec format;
 *                       malformed specs are ignored atomically)
 *   AZUL_WARM_START     "1"/"true"/"on" enables warm_start,
 *                       "0"/"false"/"off" disables it (anything else
 *                       is ignored)
 *
 * Unset or invalid variables leave the corresponding fields at their
 * defaults.
 */
void ApplyEnvOverrides(AzulOptions& opts);

/**
 * Seed of the randomized stress/fuzz sweeps from AZUL_STRESS_SEED, or
 * `fallback` when unset/invalid — the reproduction knob printed by a
 * failing stress test (docs/TESTING.md). Lives here with the other
 * env parsing rather than in each test file.
 */
std::uint64_t StressSeedFromEnv(std::uint64_t fallback);

} // namespace azul

#endif // AZUL_CORE_AZUL_CONFIG_H_
