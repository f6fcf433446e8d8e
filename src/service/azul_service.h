/**
 * @file
 * AzulService: a concurrent, multi-session solve scheduler behind a
 * stable, status-returning API (docs/API.md).
 *
 * One service owns one Scheduler (and through it the one shared
 * util/ThreadPool) plus one shared persistent mapping-cache
 * directory. Tenants open sessions — each an AzulSystem built once,
 * amortizing coloring/factorization/mapping/compilation — then submit
 * solves, multi-RHS batches, and UpdateValues against them. Requests
 * of one session run strictly in admission order (see session.h);
 * requests of different sessions run concurrently, up to
 * ServiceOptions::num_threads at a time, highest priority first.
 *
 * Admission control: at most ServiceOptions::max_queue requests may
 * be admitted-but-unfinished at once; beyond that Submit* returns
 * RESOURCE_EXHAUSTED immediately instead of blocking. Admitted
 * requests always complete — Wait() is guaranteed a response even
 * when the request's deadline expires in the queue (the response then
 * carries DEADLINE_EXCEEDED) or the service is destroyed (the
 * destructor drains every admitted request first).
 *
 * Determinism: scheduling decides only *when* a request runs, never
 * what it computes — each session's machine is touched by one worker
 * at a time, via the same code path as a standalone
 * AzulSystem::Solve. tests/test_service.cc checks bit-identity of
 * every response against a serial solo run at 1/2/8 service threads.
 */
#ifndef AZUL_SERVICE_AZUL_SERVICE_H_
#define AZUL_SERVICE_AZUL_SERVICE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/scheduler.h"
#include "service/session.h"

namespace azul {

/** Service-wide configuration. */
struct ServiceOptions {
    /** Concurrent request executions (>= 1). Sessions are still
     *  serialized individually; this bounds cross-session overlap. */
    int num_threads = 1;
    /** Admitted-but-unfinished request ceiling (>= 1); Submit*
     *  returns RESOURCE_EXHAUSTED beyond it. */
    std::size_t max_queue = 256;
    /**
     * Shared persistent mapping-cache directory for every session
     * (AzulOptions::mapping_cache_dir semantics). Sessions that set
     * their own directory keep it; empty = sessions use their own
     * setting (ApplyEnvOverrides fills it from AZUL_MAPPING_CACHE).
     */
    std::string mapping_cache_dir;
    /** Default simulated-cycle budget for requests that leave
     *  SubmitOptions::cycle_budget at 0. 0 = unlimited. */
    Cycle default_cycle_budget = 0;
    /** Default wall-clock admission-to-dispatch deadline for requests
     *  that leave SubmitOptions::deadline_seconds at 0. 0 = none. */
    double default_deadline_seconds = 0.0;
};

/** Monotonic counters; a consistent snapshot via stats(). */
struct ServiceStats {
    std::int64_t sessions_opened = 0;
    std::int64_t sessions_closed = 0;
    std::int64_t submitted = 0;         //!< admitted requests
    std::int64_t rejected = 0;          //!< Submit* returned non-OK
    std::int64_t completed = 0;         //!< responses delivered
    std::int64_t deadline_expired = 0;  //!< DEADLINE_EXCEEDED responses
    std::int64_t mapping_cache_hits = 0;
    std::int64_t mapping_cache_misses = 0;
    // ---- Time-stepping counters (docs/TIMESTEPPING.md) ---------------------
    std::int64_t warm_started = 0;   //!< solves run from an initial guess
    std::int64_t repartitions = 0;   //!< UpdateMatrix drift repartitions
    std::int64_t sessions_restored = 0; //!< warm restores from disk
};

/** The serving layer's entry point; all methods are thread-safe. */
class AzulService {
  public:
    /** Validates `options` and starts the scheduler. */
    static StatusOr<std::unique_ptr<AzulService>>
    Create(ServiceOptions options);

    /** Drains every admitted request, then stops the scheduler. */
    ~AzulService();

    AzulService(const AzulService&) = delete;
    AzulService& operator=(const AzulService&) = delete;

    /**
     * Builds an AzulSystem for `a` (AzulSystem::Create semantics —
     * all its typed errors pass through) and registers it as a new
     * session. The service's shared mapping-cache directory is
     * applied unless `opts` names its own. `name` is a caller label
     * for logs and stats. Construction runs on the calling thread —
     * it is the expensive amortized step and callers may overlap it
     * with traffic to other sessions. `opts.engine` picks the
     * session's execution engine: serving-oriented tenants that only
     * need numerics can use EngineKind::kFunctional, which runs
     * bit-identical solves without the timing model and makes a
     * session's budget deadline an iteration count (docs/API.md,
     * "Budgets and engines").
     */
    StatusOr<SessionId> OpenSession(CsrMatrix a, AzulOptions opts,
                                    std::string name = "");

    /**
     * Stops admissions to the session; already-admitted requests
     * still run to completion. NOT_FOUND for an unknown id.
     */
    Status CloseSession(SessionId session);

    /**
     * Admits one solve of the session's matrix against `b`. Returns
     * the request id to Wait() on, or: NOT_FOUND (unknown session),
     * FAILED_PRECONDITION (session closed), INVALID_ARGUMENT (rhs
     * length mismatch), RESOURCE_EXHAUSTED (admission queue full),
     * UNAVAILABLE (service shutting down).
     */
    StatusOr<RequestId> SubmitSolve(SessionId session, Vector b,
                                    SubmitOptions opts = {});

    /**
     * Admits a multi-RHS batch atomically: either every right-hand
     * side is admitted (in order, as consecutive requests of the
     * session) or none is — a batch that would overflow the admission
     * queue returns RESOURCE_EXHAUSTED without partial admission.
     */
    StatusOr<std::vector<RequestId>>
    SubmitBatch(SessionId session, std::vector<Vector> rhs,
                SubmitOptions opts = {});

    /**
     * Admits an in-order numeric update of the session's matrix
     * (AzulSystem::UpdateValues semantics): solves admitted before it
     * see the old values, solves admitted after it see the new ones.
     * A pattern mismatch is reported on the *response* status, since
     * the check runs at execution time.
     */
    StatusOr<RequestId> SubmitUpdateValues(SessionId session,
                                           CsrMatrix a_new,
                                           SubmitOptions opts = {});

    /**
     * Admits an in-order wholesale matrix replacement tolerating
     * sparsity-pattern drift (AzulSystem::UpdateMatrix semantics:
     * same dimensions required; the session's drift threshold decides
     * between inheriting the resident mapping and repartitioning).
     * The response's `repartitioned` flag records the outcome.
     */
    StatusOr<RequestId> SubmitUpdateMatrix(SessionId session,
                                           CsrMatrix a_new,
                                           SubmitOptions opts = {});

    // ---- Session persistence (docs/TIMESTEPPING.md) ------------------------
    /**
     * Persists the session's warm state — mapping, last solution,
     * structure hash — under its name in `state_dir`, so a successor
     * service can RestoreSession it after a restart. Snapshot
     * consistency is the caller's: Drain() first (or save before any
     * traffic). NOT_FOUND for an unknown id; UNAVAILABLE on I/O
     * failure.
     */
    Status SaveSession(SessionId session, const std::string& state_dir);

    /**
     * Opens a session and warm-starts it from state previously saved
     * under `name` in `state_dir`. The restored mapping is only used
     * when the saved structure hash matches `a` (the matrix may have
     * drifted across the restart); the saved solution then seeds the
     * session's warm state. A missing or corrupt state file degrades
     * to a plain cold OpenSession: the session id is still returned
     * and `restore_status` carries the typed reason (NOT_FOUND /
     * INVALID_ARGUMENT / FAILED_PRECONDITION) with `restored` false.
     */
    struct RestoreResult {
        SessionId session = 0;
        bool restored = false;
        Status restore_status;
    };
    StatusOr<RestoreResult> RestoreSession(CsrMatrix a,
                                           AzulOptions opts,
                                           std::string name,
                                           const std::string& state_dir);

    /**
     * Blocks until request `id` completes and returns its response
     * (exactly once per request — a second Wait on the same id is
     * NOT_FOUND).
     */
    StatusOr<SolveResponse> Wait(RequestId id);

    /** Blocks until every admitted request has completed. */
    void Drain();

    ServiceStats stats() const;
    const ServiceOptions& options() const { return options_; }
    int num_threads() const { return scheduler_->num_threads(); }

  private:
    explicit AzulService(ServiceOptions options);

    /** Common admission path; caller holds no locks. */
    StatusOr<RequestId> Submit(SessionId session, Request req);

    void ScheduleSession(std::shared_ptr<Session> session,
                         int priority);
    /** Worker-side: run the session's next request, deliver its
     *  response, and reschedule the session if more work is queued. */
    void ExecuteOne(const std::shared_ptr<Session>& session);

    const ServiceOptions options_;
    std::unique_ptr<Scheduler> scheduler_;

    mutable std::mutex mu_;
    std::condition_variable drain_cv_;
    bool shutdown_ = false;
    SessionId next_session_ = 1;
    RequestId next_request_ = 1;
    std::size_t pending_ = 0; //!< admitted, response not yet delivered
    std::map<SessionId, std::shared_ptr<Session>> sessions_;
    std::map<RequestId, std::future<SolveResponse>> results_;
    ServiceStats stats_;
};

} // namespace azul

#endif // AZUL_SERVICE_AZUL_SERVICE_H_
