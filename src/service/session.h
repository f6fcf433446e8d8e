/**
 * @file
 * One tenant of the AzulService: a configured AzulSystem plus the
 * FIFO of requests admitted against it.
 *
 * Concurrency contract (docs/API.md): requests of one session execute
 * strictly in admission order, one at a time — an UpdateValues
 * submitted between two solves is applied exactly between them, and
 * every solve runs on the machine via the same code path as a
 * standalone AzulSystem::Solve, so its SolveReport is bit-identical
 * to the same request sequence run serially. Concurrency exists only
 * *across* sessions; the scheduler guarantees at most one in-flight
 * execution per session via the session's scheduled flag.
 */
#ifndef AZUL_SERVICE_SESSION_H_
#define AZUL_SERVICE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <utility>

#include "core/azul_system.h"
#include "util/status.h"

namespace azul {

/** Handle of an open session (dense, starts at 1). */
using SessionId = std::uint64_t;
/** Handle of an admitted request (dense, starts at 1). */
using RequestId = std::uint64_t;

/** Per-request knobs of SubmitSolve/SubmitBatch. */
struct SubmitOptions {
    /** Higher runs sooner across sessions (FIFO within a level).
     *  Requests of one session always keep admission order. */
    int priority = 0;
    /**
     * Wall-clock budget from admission to dispatch; a request still
     * queued when it expires completes with DEADLINE_EXCEEDED
     * without running. 0 = the service default. Wall-clock deadlines
     * are inherently non-deterministic — use cycle_budget where
     * reproducibility matters.
     */
    double deadline_seconds = 0.0;
    /**
     * Simulated-cycle budget of the solve (RunBudget); a truncated
     * run completes with DEADLINE_EXCEEDED and
     * FailureKind::kBudgetExhausted in the report. Deterministic.
     * 0 = the service default.
     */
    Cycle cycle_budget = 0;
    /**
     * Explicit initial guess for this solve, in the caller's original
     * row order (docs/TIMESTEPPING.md). Empty = no explicit guess. A
     * wrong-length x0 is rejected at Submit with INVALID_ARGUMENT.
     * Takes precedence over warm_start.
     */
    Vector x0;
    /**
     * Warm-start from the session-resident last solution. Falls back
     * to a cold start cleanly when the session has no prior solve;
     * report.warm_started records which path ran.
     */
    bool warm_start = false;
};

/** What a request asks the session to do. */
enum class RequestKind : std::uint8_t {
    kSolve,        //!< solve A x = b for one right-hand side
    kUpdateValues, //!< swap A's numeric values (same pattern)
    kUpdateMatrix, //!< replace A, tolerating pattern drift
};

/** Completion record of one request (see Session's file comment for
 *  which fields are deterministic). */
struct SolveResponse {
    RequestId id = 0;
    SessionId session = 0;
    /**
     * Service-level outcome: OK when the request executed (including
     * solver-level non-convergence — inspect report.run for that),
     * DEADLINE_EXCEEDED on an expired deadline or exhausted cycle
     * budget, INVALID_ARGUMENT when UpdateValues rejected the matrix,
     * INTERNAL on an engine invariant failure.
     */
    Status status;
    /** Full solve report (kSolve requests; deterministic fields are
     *  bit-identical to the serial solo run). */
    SolveReport report;
    /** kUpdateMatrix: the drift check chose a full repartition over
     *  inheriting the resident mapping. */
    bool repartitioned = false;
    /** Wall-clock seconds from admission to dispatch. */
    double queue_seconds = 0.0;
    /** Wall-clock seconds executing on the worker. */
    double service_seconds = 0.0;
};

/** One admitted request, queued on its session. */
struct Request {
    RequestId id = 0;
    RequestKind kind = RequestKind::kSolve;
    Vector b;              //!< kSolve: right-hand side
    CsrMatrix a_new;       //!< kUpdateValues/kUpdateMatrix: new matrix
    SubmitOptions opts;    //!< budgets already defaulted by the service
    std::chrono::steady_clock::time_point admitted;
    std::promise<SolveResponse> promise;
};

/** A tenant: one AzulSystem and its admitted-request FIFO. */
class Session {
  public:
    Session(SessionId id, std::string name, AzulSystem system)
        : id_(id), name_(std::move(name)),
          rows_(system.matrix().rows()), system_(std::move(system))
    {
    }

    SessionId id() const { return id_; }
    const std::string& name() const { return name_; }

    /** Rows of the session matrix (rhs length validation). A copy
     *  taken at open, so Submit reads it without the session lock
     *  while a worker updates the matrix: both update paths reject a
     *  resize, so it never changes. */
    Index rows() const { return rows_; }

    /** Mapping-cache lookups during session construction. */
    int mapping_cache_hits() const
    {
        return system_.mapping_cache_hits();
    }
    int mapping_cache_misses() const
    {
        return system_.mapping_cache_misses();
    }

    /**
     * Direct access to the underlying system — the persistence layer
     * snapshots mapping / warm state through it and the restore path
     * seeds it. NOT serialized with request execution: touch it only
     * while the session is quiescent (before the first submit, or
     * after AzulService::Drain()).
     */
    AzulSystem& system() { return system_; }
    const AzulSystem& system() const { return system_; }

    // ---- Admission FIFO (thread-safe) -------------------------------------
    /** Appends a request; returns true when the session was idle and
     *  the caller must schedule one execution for it. */
    bool
    Enqueue(Request req)
    {
        std::lock_guard<std::mutex> lock(mu_);
        fifo_.push_back(std::move(req));
        if (!scheduled_) {
            scheduled_ = true;
            return true;
        }
        return false;
    }

    /** Takes the next request; only the single in-flight execution of
     *  this session may call it. */
    Request
    PopFront()
    {
        std::lock_guard<std::mutex> lock(mu_);
        AZUL_CHECK_MSG(!fifo_.empty(),
                       "session executed with an empty queue");
        Request req = std::move(fifo_.front());
        fifo_.pop_front();
        return req;
    }

    /**
     * Called after an execution finishes: returns true (and the head
     * request's priority) when more work is queued and the caller
     * must schedule the session again; false when the session went
     * idle.
     */
    bool
    FinishOne(int* next_priority)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fifo_.empty()) {
            scheduled_ = false;
            return false;
        }
        *next_priority = fifo_.front().opts.priority;
        return true;
    }

    std::size_t
    queued() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return fifo_.size();
    }

    /** No further admissions (pending requests still run). */
    void
    MarkClosed()
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

    /**
     * Executes one request on the calling (worker) thread and returns
     * its response; never throws. Serialized by the scheduled-flag
     * protocol above, so the underlying machine only ever sees one
     * run at a time.
     */
    SolveResponse Execute(Request req);

  private:
    const SessionId id_;
    const std::string name_;
    const Index rows_;
    AzulSystem system_;

    mutable std::mutex mu_;
    std::deque<Request> fifo_;
    bool scheduled_ = false; //!< an execution is in flight or queued
    bool closed_ = false;
};

} // namespace azul

#endif // AZUL_SERVICE_SESSION_H_
