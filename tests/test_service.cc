/**
 * @file
 * Tests of the serving layer (src/service/): the concurrent-sessions
 * differential suite — every response of a multi-tenant run must be
 * bit-identical to the same request sequence run serially on a solo
 * AzulSystem, at 1, 2, and 8 service threads — plus admission
 * control, typed error paths, deadline/budget classification, and a
 * mixed-traffic stress run with mid-stream UpdateValues.
 */
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/azul_service.h"
#include "service/session_store.h"
#include "sparse/generators.h"
#include "test_helpers.h"

namespace azul {
namespace {

using azul::testing::RandomVector;

// ---- Scenario: N sessions with distinct matrices/solvers/mappings ----------

/** One tenant's full request script. */
struct SessionScript {
    std::string name;
    CsrMatrix a;
    AzulOptions opts;
    std::vector<Vector> rhs;  //!< solves, in order
    /** Apply UpdateValues (scaling the matrix by `update_scale`)
     *  after this many solves; -1 = never. */
    int update_after = -1;
    double update_scale = 1.0;
};

CsrMatrix
Scaled(const CsrMatrix& a, double s)
{
    CsrMatrix out = a;
    for (double& v : out.mutable_vals()) {
        v *= s;
    }
    return out;
}

/** Three tenants with different matrices, solver kinds, mappers, and
 *  grid shapes; the middle one swaps values mid-stream. */
std::vector<SessionScript>
MakeScripts()
{
    std::vector<SessionScript> scripts;
    {
        SessionScript s;
        s.name = "pcg-ic0";
        s.a = RandomGeometricLaplacian(300, 7.0, 101);
        s.opts.sim.grid_width = 4;
        s.opts.sim.grid_height = 4;
        s.opts.spec.max_iters = 800;
        for (std::uint64_t i = 0; i < 4; ++i) {
            s.rhs.push_back(RandomVector(s.a.rows(), 200 + i));
        }
        scripts.push_back(std::move(s));
    }
    {
        SessionScript s;
        s.name = "pcg-jacobi-update";
        s.a = RandomGeometricLaplacian(250, 7.0, 103);
        s.opts.sim.grid_width = 4;
        s.opts.sim.grid_height = 2;
        s.opts.spec.precond = PreconditionerKind::kJacobi;
        s.opts.mapper = MapperKind::kBlock;
        s.opts.spec.max_iters = 800;
        for (std::uint64_t i = 0; i < 4; ++i) {
            s.rhs.push_back(RandomVector(s.a.rows(), 300 + i));
        }
        s.update_after = 2; // UpdateValues between solves 2 and 3
        s.update_scale = 3.0;
        scripts.push_back(std::move(s));
    }
    {
        SessionScript s;
        s.name = "jacobi-solver";
        s.a = RandomSpd(200, 4, 105);
        s.opts.sim.grid_width = 2;
        s.opts.sim.grid_height = 2;
        s.opts.spec.method = SolverKind::kJacobi;
        s.opts.spec.precond = PreconditionerKind::kIdentity;
        s.opts.spec.max_iters = 2000;
        for (std::uint64_t i = 0; i < 4; ++i) {
            s.rhs.push_back(RandomVector(s.a.rows(), 400 + i));
        }
        scripts.push_back(std::move(s));
    }
    return scripts;
}

/** Runs a script serially on a solo AzulSystem: the ground truth. */
std::vector<SolveReport>
RunSerial(const SessionScript& script)
{
    StatusOr<AzulSystem> sys = AzulSystem::Create(script.a, script.opts);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    std::vector<SolveReport> reports;
    for (std::size_t i = 0; i < script.rhs.size(); ++i) {
        if (static_cast<int>(i) == script.update_after) {
            EXPECT_TRUE(
                sys->UpdateValues(
                       Scaled(script.a, script.update_scale))
                    .ok());
        }
        reports.push_back(sys->Solve(script.rhs[i]));
    }
    return reports;
}

/** The deterministic slice of a SolveReport: everything except the
 *  wall-clock fields (mapping/compile seconds), which legitimately
 *  differ between runs. */
void
ExpectBitIdentical(const SolveReport& got, const SolveReport& want,
                   const std::string& context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(got.run.x, want.run.x); // bitwise: no tolerance
    EXPECT_EQ(got.run.converged, want.run.converged);
    EXPECT_EQ(got.run.iterations, want.run.iterations);
    EXPECT_EQ(got.run.residual_history, want.run.residual_history);
    EXPECT_EQ(got.run.stats.cycles, want.run.stats.cycles);
    EXPECT_EQ(got.run.stats.messages, want.run.stats.messages);
    EXPECT_DOUBLE_EQ(got.gflops, want.gflops);
    EXPECT_DOUBLE_EQ(got.solve_seconds, want.solve_seconds);
}

/** Runs all scripts concurrently through one service and checks every
 *  response against the serial ground truth. */
void
RunDifferential(int num_threads)
{
    const std::vector<SessionScript> scripts = MakeScripts();
    std::vector<std::vector<SolveReport>> want;
    want.reserve(scripts.size());
    for (const SessionScript& s : scripts) {
        want.push_back(RunSerial(s));
    }

    ServiceOptions sopts;
    sopts.num_threads = num_threads;
    StatusOr<std::unique_ptr<AzulService>> service =
        AzulService::Create(sopts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    AzulService& svc = **service;

    std::vector<SessionId> ids;
    for (const SessionScript& s : scripts) {
        StatusOr<SessionId> id = svc.OpenSession(s.a, s.opts, s.name);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids.push_back(*id);
    }

    // Interleave submissions round-robin across sessions so the
    // scheduler actually overlaps tenants; per-session order (solve,
    // solve, update, solve, ...) is still admission order.
    std::vector<std::vector<RequestId>> solve_reqs(scripts.size());
    for (std::size_t step = 0; step < 5; ++step) {
        for (std::size_t s = 0; s < scripts.size(); ++s) {
            const SessionScript& script = scripts[s];
            const std::size_t n_before =
                script.update_after >= 0 && static_cast<std::size_t>(
                    script.update_after) <= step
                    ? 1u
                    : 0u;
            // One submission per step: solves, with the update
            // spliced in at its scripted position.
            if (script.update_after >= 0 &&
                static_cast<std::size_t>(script.update_after) == step) {
                StatusOr<RequestId> r = svc.SubmitUpdateValues(
                    ids[s], Scaled(script.a, script.update_scale));
                ASSERT_TRUE(r.ok()) << r.status().ToString();
                continue;
            }
            const std::size_t solve_idx = step - n_before;
            if (solve_idx >= script.rhs.size()) {
                continue;
            }
            StatusOr<RequestId> r =
                svc.SubmitSolve(ids[s], script.rhs[solve_idx]);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            solve_reqs[s].push_back(*r);
        }
    }

    for (std::size_t s = 0; s < scripts.size(); ++s) {
        ASSERT_EQ(solve_reqs[s].size(), scripts[s].rhs.size());
        for (std::size_t i = 0; i < solve_reqs[s].size(); ++i) {
            StatusOr<SolveResponse> resp = svc.Wait(solve_reqs[s][i]);
            ASSERT_TRUE(resp.ok()) << resp.status().ToString();
            EXPECT_TRUE(resp->status.ok()) << resp->status.ToString();
            ExpectBitIdentical(resp->report, want[s][i],
                               scripts[s].name + " solve " +
                                   std::to_string(i) + " at " +
                                   std::to_string(num_threads) +
                                   " threads");
        }
    }

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.sessions_opened, 3);
    EXPECT_EQ(stats.submitted, 13); // 12 solves + 1 update
    EXPECT_EQ(stats.completed, 13);
    EXPECT_EQ(stats.rejected, 0);
}

TEST(ServiceDifferential, BitIdenticalToSerialAt1Thread)
{
    RunDifferential(1);
}

TEST(ServiceDifferential, BitIdenticalToSerialAt2Threads)
{
    RunDifferential(2);
}

TEST(ServiceDifferential, BitIdenticalToSerialAt8Threads)
{
    RunDifferential(8);
}

// ---- Admission control and typed errors -------------------------------------

/** A small service + one session fixture for the error-path tests. */
class ServiceErrors : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        a_ = RandomGeometricLaplacian(200, 7.0, 111);
        opts_.sim.grid_width = 2;
        opts_.sim.grid_height = 2;
        opts_.spec.max_iters = 400;
        ServiceOptions sopts;
        sopts.num_threads = 2;
        sopts.max_queue = 4;
        service_ = *AzulService::Create(sopts);
        session_ = *service_->OpenSession(a_, opts_, "tenant");
    }

    CsrMatrix a_;
    AzulOptions opts_;
    std::unique_ptr<AzulService> service_;
    SessionId session_ = 0;
};

TEST_F(ServiceErrors, CreateRejectsBadOptions)
{
    ServiceOptions bad;
    bad.num_threads = 0;
    EXPECT_EQ(AzulService::Create(bad).status().code(),
              StatusCode::kInvalidArgument);
    bad = ServiceOptions{};
    bad.max_queue = 0;
    EXPECT_EQ(AzulService::Create(bad).status().code(),
              StatusCode::kInvalidArgument);
}

TEST_F(ServiceErrors, OpenSessionForwardsCreateErrors)
{
    AzulOptions bad = opts_;
    bad.sim.grid_width = -1;
    const StatusOr<SessionId> id = service_->OpenSession(a_, bad);
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceErrors, UnknownSessionIsNotFound)
{
    const StatusOr<RequestId> r =
        service_->SubmitSolve(9999, RandomVector(a_.rows(), 1));
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(service_->CloseSession(9999).code(),
              StatusCode::kNotFound);
}

TEST_F(ServiceErrors, RhsLengthMismatchIsInvalidArgument)
{
    const StatusOr<RequestId> r =
        service_->SubmitSolve(session_, Vector(7, 1.0));
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("rhs"), std::string::npos);
}

TEST_F(ServiceErrors, ClosedSessionIsFailedPrecondition)
{
    ASSERT_TRUE(service_->CloseSession(session_).ok());
    const StatusOr<RequestId> r =
        service_->SubmitSolve(session_, RandomVector(a_.rows(), 3));
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceErrors, OverflowingBatchIsRejectedAtomically)
{
    // max_queue is 4: a 5-RHS batch can never be admitted, no matter
    // how fast earlier requests drain — a deterministic rejection.
    std::vector<Vector> rhs;
    for (std::uint64_t i = 0; i < 5; ++i) {
        rhs.push_back(RandomVector(a_.rows(), 20 + i));
    }
    const StatusOr<std::vector<RequestId>> r =
        service_->SubmitBatch(session_, rhs);
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    // Nothing was admitted: the service drains to zero work.
    service_->Drain();
    EXPECT_EQ(service_->stats().submitted, 0);
    EXPECT_EQ(service_->stats().rejected, 1);

    // A batch that fits is admitted whole and every RHS solves.
    rhs.resize(3);
    const StatusOr<std::vector<RequestId>> ok =
        service_->SubmitBatch(session_, rhs);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    ASSERT_EQ(ok->size(), 3u);
    for (const RequestId id : *ok) {
        const StatusOr<SolveResponse> resp = service_->Wait(id);
        ASSERT_TRUE(resp.ok());
        EXPECT_TRUE(resp->status.ok()) << resp->status.ToString();
        EXPECT_TRUE(resp->report.run.converged);
    }
}

TEST_F(ServiceErrors, EmptyBatchIsInvalidArgument)
{
    EXPECT_EQ(service_->SubmitBatch(session_, {}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST_F(ServiceErrors, WaitConsumesTheResponse)
{
    const StatusOr<RequestId> r =
        service_->SubmitSolve(session_, RandomVector(a_.rows(), 5));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(service_->Wait(*r).ok());
    EXPECT_EQ(service_->Wait(*r).status().code(),
              StatusCode::kNotFound);
}

TEST_F(ServiceErrors, CycleBudgetIsDeadlineExceeded)
{
    SubmitOptions sub;
    sub.cycle_budget = 1; // expires after the first iteration
    const StatusOr<RequestId> r = service_->SubmitSolve(
        session_, RandomVector(a_.rows(), 7), sub);
    ASSERT_TRUE(r.ok());
    const StatusOr<SolveResponse> resp = service_->Wait(*r);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(resp->report.run.failure,
              FailureKind::kBudgetExhausted);
    // The partial result is still delivered.
    EXPECT_FALSE(resp->report.run.x.empty());
}

TEST_F(ServiceErrors, BadUpdateValuesReportsOnTheResponse)
{
    const CsrMatrix other = RandomGeometricLaplacian(200, 7.0, 112);
    const StatusOr<RequestId> r =
        service_->SubmitUpdateValues(session_, other);
    ASSERT_TRUE(r.ok()); // admission cannot see the pattern mismatch
    const StatusOr<SolveResponse> resp = service_->Wait(*r);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status.code(), StatusCode::kInvalidArgument);

    // The session survives and still solves correctly.
    const StatusOr<RequestId> solve =
        service_->SubmitSolve(session_, RandomVector(a_.rows(), 9));
    ASSERT_TRUE(solve.ok());
    const StatusOr<SolveResponse> sresp = service_->Wait(*solve);
    ASSERT_TRUE(sresp.ok());
    EXPECT_TRUE(sresp->status.ok());
    EXPECT_TRUE(sresp->report.run.converged);
}

TEST_F(ServiceErrors, DestructorDrainsAdmittedWork)
{
    std::vector<RequestId> reqs;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const StatusOr<RequestId> r = service_->SubmitSolve(
            session_, RandomVector(a_.rows(), 30 + i));
        ASSERT_TRUE(r.ok());
        reqs.push_back(*r);
    }
    // Destroy with work in flight: every admitted request must still
    // have been executed (responses delivered into the futures).
    service_.reset();
}

// ---- Warm-start and structure-drift request paths ---------------------------

TEST_F(ServiceErrors, X0LengthMismatchIsInvalidArgument)
{
    SubmitOptions sub;
    sub.x0 = Vector(5, 0.0);
    const StatusOr<RequestId> r = service_->SubmitSolve(
        session_, RandomVector(a_.rows(), 51), sub);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("x0"), std::string::npos);
    EXPECT_EQ(service_->stats().rejected, 1);
}

TEST_F(ServiceErrors, WarmStartWithNoPriorSolveFallsBackCold)
{
    SubmitOptions sub;
    sub.warm_start = true;
    const StatusOr<RequestId> r = service_->SubmitSolve(
        session_, RandomVector(a_.rows(), 53), sub);
    ASSERT_TRUE(r.ok());
    const StatusOr<SolveResponse> resp = service_->Wait(*r);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->status.ok());
    EXPECT_TRUE(resp->report.run.converged);
    EXPECT_FALSE(resp->report.warm_started); // nothing resident
    EXPECT_EQ(service_->stats().warm_started, 0);
}

TEST_F(ServiceErrors, ExplicitX0WarmStartsTheSolve)
{
    const Vector b = RandomVector(a_.rows(), 55);
    const StatusOr<RequestId> first =
        service_->SubmitSolve(session_, b);
    ASSERT_TRUE(first.ok());
    const StatusOr<SolveResponse> cold = service_->Wait(*first);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(cold->report.run.converged);

    SubmitOptions sub;
    sub.x0 = cold->report.run.x; // exact solution as the guess
    const StatusOr<RequestId> second =
        service_->SubmitSolve(session_, b, sub);
    ASSERT_TRUE(second.ok());
    const StatusOr<SolveResponse> warm = service_->Wait(*second);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->report.warm_started);
    EXPECT_EQ(warm->report.run.iterations, 0);
    EXPECT_EQ(service_->stats().warm_started, 1);
}

TEST_F(ServiceErrors, UpdateMatrixToleratesPatternDrift)
{
    // A different geometric graph: same size, new sparsity pattern —
    // UpdateValues must reject it, UpdateMatrix must absorb it.
    const CsrMatrix drifted = RandomGeometricLaplacian(200, 7.0, 117);
    const StatusOr<RequestId> r =
        service_->SubmitUpdateMatrix(session_, drifted);
    ASSERT_TRUE(r.ok());
    const StatusOr<SolveResponse> resp = service_->Wait(*r);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->status.ok()) << resp->status.ToString();

    const Vector b = RandomVector(a_.rows(), 57);
    const StatusOr<RequestId> solve =
        service_->SubmitSolve(session_, b);
    ASSERT_TRUE(solve.ok());
    const StatusOr<SolveResponse> sresp = service_->Wait(*solve);
    ASSERT_TRUE(sresp.ok());
    ASSERT_TRUE(sresp->report.run.converged);
    // The response answers the NEW matrix.
    Vector ax(b.size(), 0.0);
    for (Index row = 0; row < drifted.rows(); ++row) {
        for (Index k = drifted.RowBegin(row); k < drifted.RowEnd(row);
             ++k) {
            ax[static_cast<std::size_t>(row)] +=
                drifted.vals()[k] *
                sresp->report.run
                    .x[static_cast<std::size_t>(drifted.col_idx()[k])];
        }
    }
    EXPECT_VECTOR_NEAR(ax, b, 1e-6);
}

// ---- Session persistence (docs/TIMESTEPPING.md) -----------------------------

class ServicePersistence : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        a_ = RandomGeometricLaplacian(180, 7.0, 121);
        opts_.sim.grid_width = 2;
        opts_.sim.grid_height = 2;
        opts_.spec.max_iters = 400;
        b_ = RandomVector(a_.rows(), 122);
        state_dir_ = ::testing::TempDir() + "azul-session-state-" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
        std::filesystem::remove_all(state_dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(state_dir_);
    }

    std::unique_ptr<AzulService>
    NewService()
    {
        ServiceOptions sopts;
        sopts.num_threads = 2;
        return *AzulService::Create(sopts);
    }

    /** Opens a session, solves once, and persists its warm state. */
    void
    SaveWarmSession(const std::string& name)
    {
        std::unique_ptr<AzulService> svc = NewService();
        const SessionId id = *svc->OpenSession(a_, opts_, name);
        const StatusOr<RequestId> r = svc->SubmitSolve(id, b_);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(svc->Wait(*r).ok());
        svc->Drain();
        ASSERT_TRUE(svc->SaveSession(id, state_dir_).ok());
    }

    CsrMatrix a_;
    AzulOptions opts_;
    Vector b_;
    std::string state_dir_;
};

TEST_F(ServicePersistence, SaveUnknownSessionIsNotFound)
{
    std::unique_ptr<AzulService> svc = NewService();
    EXPECT_EQ(svc->SaveSession(41, state_dir_).code(),
              StatusCode::kNotFound);
}

TEST_F(ServicePersistence, SaveWithoutWarmStateIsFailedPrecondition)
{
    std::unique_ptr<AzulService> svc = NewService();
    const SessionId id = *svc->OpenSession(a_, opts_, "fresh");
    EXPECT_EQ(svc->SaveSession(id, state_dir_).code(),
              StatusCode::kFailedPrecondition);
}

TEST_F(ServicePersistence, ConcurrentSavesOfOneNameStayConsistent)
{
    // Regression: SessionStore used a fixed ".tmp" staging suffix, so
    // two concurrent saves of the same session name interleaved on
    // the same intermediate file and could rename a torn mix of both
    // writers into place. With writer-unique suffixes, whichever
    // complete state renames last wins, and a load always sees one
    // writer's solution bit-for-bit.
    std::unique_ptr<AzulService> s1 = NewService();
    std::unique_ptr<AzulService> s2 = NewService();
    const SessionId id1 = *s1->OpenSession(a_, opts_, "shared");
    const SessionId id2 = *s2->OpenSession(a_, opts_, "shared");
    const StatusOr<SolveResponse> r1 =
        s1->Wait(*s1->SubmitSolve(id1, b_));
    const StatusOr<SolveResponse> r2 =
        s2->Wait(*s2->SubmitSolve(id2, RandomVector(a_.rows(), 123)));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_NE(r1->report.run.x, r2->report.run.x);
    s1->Drain();
    s2->Drain();

    constexpr int kRounds = 24;
    std::atomic<int> failures{0};
    const auto hammer = [&](AzulService& svc, SessionId id) {
        for (int i = 0; i < kRounds; ++i) {
            if (!svc.SaveSession(id, state_dir_).ok()) {
                ++failures;
            }
        }
    };
    std::thread w1(hammer, std::ref(*s1), id1);
    std::thread w2(hammer, std::ref(*s2), id2);
    w1.join();
    w2.join();
    EXPECT_EQ(failures.load(), 0);

    const SessionStore store(state_dir_);
    const StatusOr<SessionState> state = store.Load("shared");
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    // The surviving solution is exactly one writer's — never a blend.
    EXPECT_TRUE(state->last_x == r1->report.run.x ||
                state->last_x == r2->report.run.x);
    // No staging debris left behind.
    int tmp_files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(state_dir_)) {
        if (entry.path().filename().string().find(".tmp") !=
            std::string::npos) {
            ++tmp_files;
        }
    }
    EXPECT_EQ(tmp_files, 0);
}

TEST_F(ServicePersistence, RestoreRoundTripWarmStartsTheSuccessor)
{
    SaveWarmSession("tenant");

    // A successor service (post-restart) restores by name.
    std::unique_ptr<AzulService> svc = NewService();
    const StatusOr<AzulService::RestoreResult> r =
        svc->RestoreSession(a_, opts_, "tenant", state_dir_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->restored);
    EXPECT_TRUE(r->restore_status.ok());
    EXPECT_EQ(svc->stats().sessions_restored, 1);

    // Warm-starting from the restored solution on the same rhs needs
    // no iterations at all.
    SubmitOptions sub;
    sub.warm_start = true;
    const StatusOr<RequestId> solve =
        svc->SubmitSolve(r->session, b_, sub);
    ASSERT_TRUE(solve.ok());
    const StatusOr<SolveResponse> resp = svc->Wait(*solve);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->report.warm_started);
    EXPECT_TRUE(resp->report.run.converged);
    EXPECT_EQ(resp->report.run.iterations, 0);
}

TEST_F(ServicePersistence, MissingStateDegradesToColdWithNotFound)
{
    std::unique_ptr<AzulService> svc = NewService();
    const StatusOr<AzulService::RestoreResult> r =
        svc->RestoreSession(a_, opts_, "never-saved", state_dir_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->restored);
    EXPECT_EQ(r->restore_status.code(), StatusCode::kNotFound);
    EXPECT_EQ(svc->stats().sessions_restored, 0);

    // The session is open and fully usable, just cold.
    const StatusOr<RequestId> solve =
        svc->SubmitSolve(r->session, b_);
    ASSERT_TRUE(solve.ok());
    const StatusOr<SolveResponse> resp = svc->Wait(*solve);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp->report.warm_started);
    EXPECT_TRUE(resp->report.run.converged);
}

TEST_F(ServicePersistence, CorruptStateDegradesToColdWithTypedStatus)
{
    SaveWarmSession("tenant");
    // Truncate the solution file: the restore must not trust it.
    {
        std::ofstream out(state_dir_ + "/tenant.x",
                          std::ios::binary | std::ios::trunc);
        out << "not a checkpoint";
    }
    std::unique_ptr<AzulService> svc = NewService();
    const StatusOr<AzulService::RestoreResult> r =
        svc->RestoreSession(a_, opts_, "tenant", state_dir_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->restored);
    EXPECT_EQ(r->restore_status.code(),
              StatusCode::kInvalidArgument);

    const StatusOr<RequestId> solve =
        svc->SubmitSolve(r->session, b_);
    ASSERT_TRUE(solve.ok());
    const StatusOr<SolveResponse> resp = svc->Wait(*solve);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp->report.warm_started);
    EXPECT_TRUE(resp->report.run.converged);
}

TEST_F(ServicePersistence, StructureMismatchDegradesToCold)
{
    SaveWarmSession("tenant");
    // The matrix drifted across the restart: the saved mapping and
    // solution no longer apply.
    const CsrMatrix drifted = RandomGeometricLaplacian(180, 7.0, 123);
    std::unique_ptr<AzulService> svc = NewService();
    const StatusOr<AzulService::RestoreResult> r =
        svc->RestoreSession(drifted, opts_, "tenant", state_dir_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->restored);
    EXPECT_EQ(r->restore_status.code(),
              StatusCode::kFailedPrecondition);
    EXPECT_NE(
        r->restore_status.message().find("structure"),
        std::string::npos);
}

// ---- Concurrency: solves beside value updates on one session ----------------

TEST(ServiceConcurrency, SolvesBesideUpdateValuesOnOneSession)
{
    // Submit checks each rhs against the session's row count without
    // the session lock, while a worker's UpdateValues replaces the
    // session matrix. One client thread streams updates and another
    // streams solves into the same session; the TSan CI job runs this
    // and must report no data race. Every request must succeed.
    const CsrMatrix a = RandomGeometricLaplacian(150, 7.0, 131);
    AzulOptions opts;
    opts.engine = EngineKind::kFunctional;
    opts.sim.grid_width = 2;
    opts.sim.grid_height = 2;
    ServiceOptions sopts;
    sopts.num_threads = 2;
    std::unique_ptr<AzulService> svc = *AzulService::Create(sopts);
    const SessionId id = *svc->OpenSession(a, opts, "shared");

    constexpr int kUpdates = 12;
    constexpr int kSolves = 24;
    std::atomic<int> failures{0};
    const auto wait_ok = [&](const StatusOr<RequestId>& r,
                             bool solve) {
        if (!r.ok()) {
            ++failures;
            return;
        }
        const StatusOr<SolveResponse> resp = svc->Wait(*r);
        if (!resp.ok() || !resp->status.ok() ||
            (solve && !resp->report.run.converged)) {
            ++failures;
        }
    };
    std::thread updater([&] {
        for (int i = 0; i < kUpdates; ++i) {
            const CsrMatrix scaled = Scaled(a, 1.1 + 0.1 * i);
            wait_ok(svc->SubmitUpdateValues(id, scaled), false);
        }
    });
    std::thread solver([&] {
        for (std::uint64_t seed = 300; seed < 300 + kSolves; ++seed) {
            const Vector b = RandomVector(a.rows(), seed);
            wait_ok(svc->SubmitSolve(id, b), true);
        }
    });
    updater.join();
    solver.join();
    EXPECT_EQ(failures.load(), 0);
    const ServiceStats stats = svc->stats();
    EXPECT_EQ(stats.submitted, kUpdates + kSolves);
    EXPECT_EQ(stats.completed, kUpdates + kSolves);
}

// ---- Stress: mixed tenants under the 8-thread scheduler ---------------------

TEST(ServiceStress, MixedTrafficMatchesSerialReferences)
{
    // Six sessions over three distinct matrices; every session runs
    // solve, solve, UpdateValues, solve — submitted breadth-first so
    // all six FIFOs stay populated while the scheduler overlaps them.
    struct Tenant {
        SessionScript script;
        SessionId id = 0;
        std::vector<RequestId> solves;
    };
    const std::vector<SessionScript> base = MakeScripts();
    std::vector<Tenant> tenants;
    for (std::uint64_t t = 0; t < 6; ++t) {
        Tenant tenant;
        tenant.script = base[t % base.size()];
        tenant.script.name += "-" + std::to_string(t);
        tenant.script.rhs.clear();
        for (std::uint64_t i = 0; i < 3; ++i) {
            tenant.script.rhs.push_back(RandomVector(
                tenant.script.a.rows(), 1000 + 10 * t + i));
        }
        tenant.script.update_after = 2;
        tenant.script.update_scale = 1.5 + 0.25 * t;
        tenants.push_back(std::move(tenant));
    }

    std::vector<std::vector<SolveReport>> want;
    want.reserve(tenants.size());
    for (const Tenant& t : tenants) {
        want.push_back(RunSerial(t.script));
    }

    ServiceOptions sopts;
    sopts.num_threads = 8;
    sopts.max_queue = 64;
    std::unique_ptr<AzulService> svc = *AzulService::Create(sopts);
    for (Tenant& t : tenants) {
        t.id = *svc->OpenSession(t.script.a, t.script.opts,
                                 t.script.name);
    }
    for (std::size_t step = 0; step < 4; ++step) {
        for (Tenant& t : tenants) {
            if (step == 2) {
                ASSERT_TRUE(svc->SubmitUpdateValues(
                                   t.id, Scaled(t.script.a,
                                                t.script.update_scale))
                                .ok());
                continue;
            }
            const std::size_t solve_idx = step < 2 ? step : step - 1;
            const StatusOr<RequestId> r = svc->SubmitSolve(
                t.id, t.script.rhs[solve_idx]);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            t.solves.push_back(*r);
        }
    }
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        for (std::size_t i = 0; i < tenants[t].solves.size(); ++i) {
            const StatusOr<SolveResponse> resp =
                svc->Wait(tenants[t].solves[i]);
            ASSERT_TRUE(resp.ok());
            ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
            ExpectBitIdentical(resp->report, want[t][i],
                               tenants[t].script.name + " solve " +
                                   std::to_string(i));
        }
    }
    const ServiceStats stats = svc->stats();
    EXPECT_EQ(stats.submitted, 24); // 6 x (3 solves + 1 update)
    EXPECT_EQ(stats.completed, 24);
    EXPECT_EQ(stats.deadline_expired, 0);
}

} // namespace
} // namespace azul
