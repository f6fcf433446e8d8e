#include "core/azul_config.h"

#include <cstdlib>
#include <sstream>

namespace azul {

Status
SolverSpec::Validate() const
{
    std::ostringstream oss;
    if (tol < 0.0) {
        oss << "spec.tol must be >= 0, got " << tol;
        return InvalidArgument(oss.str());
    }
    if (max_iters < 0) {
        oss << "spec.max_iters must be >= 0, got " << max_iters;
        return InvalidArgument(oss.str());
    }
    if (method == SolverKind::kJacobi) {
        if (precond != PreconditionerKind::kIdentity) {
            oss << "spec.method=jacobi is its own stationary method "
                   "and requires spec.precond=none, got "
                << PreconditionerKindName(precond);
            return InvalidArgument(oss.str());
        }
        if (!(jacobi_omega > 0.0 && jacobi_omega <= 1.0)) {
            oss << "spec.jacobi_omega must lie in (0, 1], got "
                << jacobi_omega;
            return InvalidArgument(oss.str());
        }
    }
    if (method == SolverKind::kGmres && restart < 1) {
        oss << "spec.restart must be >= 1 for gmres, got " << restart;
        return InvalidArgument(oss.str());
    }
    if (precond == PreconditionerKind::kSsor &&
        !(ssor_omega > 0.0 && ssor_omega < 2.0)) {
        oss << "spec.ssor_omega must lie in (0, 2), got "
            << ssor_omega;
        return InvalidArgument(oss.str());
    }
    return OkStatus();
}

std::string
SolverSpec::ToString() const
{
    std::ostringstream oss;
    oss << "method=" << SolverKindName(method)
        << ", precond=" << PreconditionerKindName(precond)
        << ", precision=" << PrecisionModeName(precision)
        << ", tol=" << tol << ", max_iters=" << max_iters;
    if (method == SolverKind::kGmres) {
        oss << ", restart=" << restart;
    }
    if (method == SolverKind::kJacobi) {
        oss << ", jacobi_omega=" << jacobi_omega;
    }
    if (precond == PreconditionerKind::kSsor) {
        oss << ", ssor_omega=" << ssor_omega;
    }
    return oss.str();
}

std::string
AzulOptions::ToString() const
{
    std::ostringstream oss;
    oss << sim.ToString() << ", engine=" << EngineKindName(engine)
        << ", solver_spec{" << spec.ToString() << "}"
        << ", mapper=" << MapperKindName(mapper)
        << (color_and_permute ? ", colored" : ", uncolored")
        << (graph.use_trees ? ", trees" : ", p2p");
    if (!mapping_cache_dir.empty()) {
        oss << ", cache=" << mapping_cache_dir;
    }
    if (warm_start) {
        oss << ", warm-start(drift<=" << drift_traffic_threshold
            << ")";
    }
    return oss.str();
}

void
ApplyEnvOverrides(AzulOptions& opts)
{
    // Host parallelism: one knob drives both the simulation engine
    // and the parallel partitioner, exactly as the bench --threads
    // flag does.
    const std::int32_t threads =
        SimThreadsFromEnv(opts.sim.sim_threads);
    opts.sim.sim_threads = threads;
    opts.azul_mapper.partitioner.threads = threads;

    // Execution engine: "cycle" or "functional"; anything else is
    // ignored (the default stays).
    if (const char* engine_env = std::getenv("AZUL_ENGINE")) {
        ParseEngineKind(engine_env, opts.engine);
    }

    // Solver spec overrides: same ignore-invalid policy — an
    // unrecognized name leaves the spec field at its default.
    if (const char* solver_env = std::getenv("AZUL_SOLVER")) {
        ParseSolverKind(solver_env, opts.spec.method);
    }
    if (const char* precond_env = std::getenv("AZUL_PRECOND")) {
        ParsePreconditionerKind(precond_env, opts.spec.precond);
    }
    if (const char* precision_env = std::getenv("AZUL_PRECISION")) {
        ParsePrecisionMode(precision_env, opts.spec.precision);
    }

    if (opts.mapping_cache_dir.empty()) {
        if (const char* dir = std::getenv("AZUL_MAPPING_CACHE")) {
            opts.mapping_cache_dir = dir;
        }
    }

    // Warm start: explicit on/off values only; anything else leaves
    // the field untouched (same ignore-invalid policy as AZUL_ENGINE).
    if (const char* warm_env = std::getenv("AZUL_WARM_START")) {
        const std::string v(warm_env);
        if (v == "1" || v == "true" || v == "on") {
            opts.warm_start = true;
        } else if (v == "0" || v == "false" || v == "off") {
            opts.warm_start = false;
        }
    }

    // Malformed AZUL_FAULTS specs are rejected atomically inside.
    ApplyFaultEnv(opts.sim);
}

std::uint64_t
StressSeedFromEnv(std::uint64_t fallback)
{
    const char* env = std::getenv("AZUL_STRESS_SEED");
    if (env == nullptr || *env == '\0') {
        return fallback;
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end == env || *end != '\0') {
        return fallback;
    }
    return static_cast<std::uint64_t>(v);
}

} // namespace azul
