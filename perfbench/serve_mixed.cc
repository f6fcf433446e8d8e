/**
 * @file
 * serve_mixed: independent tenants on the serving path, AzulFleet ->
 * AzulService -> functional tape (NOTES.md). Two instances with one
 * service thread each, one generator thread, and one collector
 * thread, all on one CPU (HostGauge). Eight sessions over four
 * distinct suite matrices share a fresh mapping cache, so half the
 * opens hit it. Tenants send single solves (half warm-started) and
 * 8-RHS batches beside SubmitUpdateValues. An open-loop Poisson phase
 * at a fixed rate gives the latencies, those of single solves; a
 * closed-loop saturation phase gives the throughput.
 */
#include <unistd.h>

#include <cmath>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "fleet/azul_fleet.h"
#include "sparse/generators.h"
#include "util/rng.h"
#include "util/work_queue.h"

namespace azul::perfbench {

namespace {

constexpr int kInstances = 2;
constexpr int kSessions = 8;
constexpr int kMatrices = 4;
constexpr int kBatch = 8;
constexpr int kSetupReps = 5;
/** Suite scale of the tenants' matrices: small enough that a request
 *  takes milliseconds, so a run holds hundreds of latency samples. */
constexpr double kScale = 0.125;
/** Suite indices of the tenants' matrices: a dense-row FEM mesh, a
 *  scrambled unstructured mesh, a 3-D grid and a 2-D grid. */
constexpr int kSuiteIndex[kMatrices] = {0, 4, 5, 7};
/**
 * Open-loop arrival rate (requests/s), ~85 solves/s and 12 updates/s:
 * a quarter to two fifths of the fleet's closed-loop saturation on its
 * one CPU (210-350 solves/s on the 4-vCPU x86-64 VM the benchmark was
 * tuned on, as contended as the host was). A constant, so a slower
 * build shows as queueing, not as less offered load. Not half of
 * saturation: there, a 15% host slowdown pushed the queue far enough up
 * its 1/(1 - load) curve to move p90 by 50% between runs of the same
 * code (NOTES.md).
 */
constexpr double kOpenLoopRps = 75.0;
/** Share of the run's seconds spent in the open-loop phase. */
constexpr double kOpenShare = 0.7;
/** A request's contended share also covers this much time before its
 *  send, when the queue it meets built up. */
constexpr auto kBacklog = std::chrono::milliseconds(5);
/** Samples per group the figures rest on: the uncontended ones
 *  (HostGauge), or else this many least contended ones. */
constexpr std::size_t kMinKept = 20;
/** Closed-loop slices: short, so many of them run uncontended. */
constexpr double kSliceSeconds = 0.1;
/** Closed-loop window: requests each tenant keeps outstanding. */
constexpr int kWindow = 2;
constexpr double kTol = 1e-8;
/** Host true residual may exceed tol by this factor (rounding). */
constexpr double kResidualFactor = 10.0;

enum class Kind { kSolve, kWarmSolve, kBatch, kUpdate };

/**
 * Every tenant walks this cycle of request kinds (from its own offset).
 * The mix is synthetic; the repository holds no serving trace with
 * updates and batches. Where it has a figure, the cycle follows it:
 * half the single solves warm-start (bench_fleet_loadtest's
 * --warm-frac default), and there is one value update per five single
 * solves (the updating tenant of azul_serve's demo trace). One 8-RHS
 * batch per cycle makes every tenant send each kind. So 25 requests:
 * 10 cold and 10 warm single solves, 4 updates and 1 batch. A fixed
 * cycle keeps iters_per_solve from depending on which kinds a seed
 * happened to draw.
 */
constexpr Kind kCycle[] = {
    Kind::kSolve,     Kind::kWarmSolve, Kind::kSolve,     Kind::kWarmSolve,
    Kind::kUpdate,    Kind::kSolve,     Kind::kWarmSolve, Kind::kSolve,
    Kind::kWarmSolve, Kind::kUpdate,    Kind::kSolve,     Kind::kWarmSolve,
    Kind::kBatch,     Kind::kSolve,     Kind::kWarmSolve, Kind::kUpdate,
    Kind::kSolve,     Kind::kWarmSolve, Kind::kSolve,     Kind::kWarmSolve,
    Kind::kUpdate,    Kind::kSolve,     Kind::kWarmSolve, Kind::kSolve,
    Kind::kWarmSolve};
constexpr int kCycleLen = static_cast<int>(sizeof(kCycle) / sizeof(kCycle[0]));

/** One tenant's request stream: content depends only on the seed and
 *  the tenant's own sequence, never on timing. */
struct Tenant {
    Rng rng;
    std::shared_ptr<const CsrMatrix> base;
    std::shared_ptr<const CsrMatrix> current; //!< values requests see
    Vector last_b;
    int updates = 0;
    int sent = 0; //!< requests drawn so far
};

/** One admitted request, as the collector needs it. */
struct Issued {
    Kind kind = Kind::kSolve;
    int tenant = 0;
    std::vector<RequestId> ids; //!< one per right-hand side (batch: 8)
    std::vector<Vector> rhs;
    std::shared_ptr<const CsrMatrix> a; //!< values the request saw
    Clock::time_point intended;
    Clock::time_point submit_start;
    Clock::time_point submit_end;
    bool admitted = false;
};

/** Draws the tenant's next request and submits it. */
Issued
SubmitNext(AzulFleet& fleet, SessionId session, Tenant& t, int tenant_index)
{
    Issued req;
    req.tenant = tenant_index;
    req.kind = kCycle[(tenant_index + t.sent++) % kCycleLen];
    if (req.kind == Kind::kUpdate) {
        // Smooth value drift; a uniform scale keeps the matrix SPD.
        ++t.updates;
        auto next = std::make_shared<CsrMatrix>(*t.base);
        const double s =
            1.0 + 0.05 * std::sin(2.0 * M_PI * t.updates / 16.0);
        for (double& v : next->mutable_vals()) {
            v *= s;
        }
        t.current = next;
    } else if (req.kind == Kind::kWarmSolve && !t.last_b.empty()) {
        // The next time step's load: a small change of the last one.
        Vector b = t.last_b;
        for (double& x : b) {
            x += 1e-3 * t.rng.UniformDouble(-1.0, 1.0);
        }
        req.rhs.push_back(std::move(b));
    } else {
        const int count = req.kind == Kind::kBatch ? kBatch : 1;
        for (int i = 0; i < count; ++i) {
            req.rhs.push_back(RandomVector(t.rng, t.base->rows()));
        }
    }
    if (!req.rhs.empty()) {
        t.last_b = req.rhs.back();
    }
    req.a = t.current;

    ScopedSpan span("fleet.submit", "fleet");
    req.submit_start = Clock::now();
    if (req.kind == Kind::kUpdate) {
        StatusOr<RequestId> id = fleet.SubmitUpdateValues(session, *req.a);
        if ((req.admitted = id.ok())) {
            req.ids.push_back(*id);
        }
    } else if (req.kind == Kind::kBatch) {
        StatusOr<std::vector<RequestId>> ids =
            fleet.SubmitBatch(session, req.rhs);
        if ((req.admitted = ids.ok())) {
            req.ids = *std::move(ids);
        }
    } else {
        SubmitOptions opts;
        opts.warm_start = req.kind == Kind::kWarmSolve;
        StatusOr<RequestId> id =
            fleet.SubmitSolve(session, req.rhs.front(), opts);
        if ((req.admitted = id.ok())) {
            req.ids.push_back(*id);
        }
    }
    req.submit_end = Clock::now();
    return req;
}

/** Per-phase tallies the collector fills. */
struct Tally {
    std::vector<double> latency_ms;
    /** Latencies of single solves, the one request class the gated
     *  latency quantiles come from: one list per tenant matrix, cold
     *  solves first, then warm-started ones. */
    std::vector<Gauged> single_ms = std::vector<Gauged>(2 * kMatrices);
    /** Latencies by request kind and tenant matrix, for the report. */
    std::map<std::string, std::vector<double>> by_class;
    std::vector<double> queue_ms, exec_ms, route_ms, submit_us, lag_ms;
    std::int64_t solves = 0;
    std::int64_t warm = 0;
    double iterations = 0.0;
    double exec_ns = 0.0;
    double nnz_iters = 0.0;
    Clock::time_point last_done;
    /** Phase start to the last completion, seconds. */
    double span_s = 0.0;
};

/**
 * Waits for every response of `req` and checks it: the request must
 * have been admitted with every status OK, and every solve must
 * converge with a host true residual within kResidualFactor * tol
 * against the values the request saw.
 */
void
Collect(AzulFleet& fleet, const HostGauge& gauge, const Issued& req,
        Checker& checker, Tally& tally)
{
    checker.CheckOk(req.admitted, "tenant " + std::to_string(req.tenant) +
                                      ": admission rejected");
    if (!req.admitted) {
        return;
    }
    double queue_s = 0.0;
    double exec_s = 0.0;
    for (std::size_t i = 0; i < req.ids.size(); ++i) {
        StatusOr<SolveResponse> resp = [&] {
            ScopedSpan span("fleet.wait", "fleet", req.ids[i]);
            return fleet.Wait(req.ids[i]);
        }();
        const bool ok = resp.ok() && resp->status.ok();
        if (req.kind == Kind::kUpdate || !ok) {
            checker.CheckOk(ok, "tenant " + std::to_string(req.tenant) +
                                    ": request status " +
                                    (resp.ok() ? resp->status : resp.status())
                                        .ToString());
        } else {
            const SolverRunResult& run = resp->report.run;
            checker.CheckSolve(*req.a, req.rhs[i], run.x, run.converged,
                               kTol, kResidualFactor,
                               "tenant " + std::to_string(req.tenant));
            ++tally.solves;
            tally.warm += resp->report.warm_started ? 1 : 0;
            tally.iterations += static_cast<double>(run.iterations);
            if (req.kind != Kind::kBatch) {
                tally.exec_ns += resp->service_seconds * 1e9;
                tally.nnz_iters += static_cast<double>(req.a->nnz()) *
                                   static_cast<double>(run.iterations);
            }
        }
        if (resp.ok()) {
            // The last response of a batch completes the request.
            queue_s = resp->queue_seconds;
            exec_s = resp->service_seconds;
        }
    }
    const auto observed = Clock::now();
    tally.last_done = observed;
    const double lag = Seconds(req.intended, req.submit_start);
    const double submit = Seconds(req.submit_start, req.submit_end);
    // Latency runs from the intended send time to completion: generator
    // lag + routing/admission + queue + execution (no collector delay).
    tally.latency_ms.push_back((lag + submit + queue_s + exec_s) * 1e3);
    static const char* kKindName[] = {"solve", "warm", "batch", "update"};
    tally.by_class[std::string(kKindName[static_cast<int>(req.kind)]) +
                   "/m" + std::to_string(req.tenant % kMatrices)]
        .push_back(tally.latency_ms.back());
    if (req.kind == Kind::kSolve || req.kind == Kind::kWarmSolve) {
        const int warm = req.kind == Kind::kWarmSolve ? kMatrices : 0;
        tally.single_ms[static_cast<std::size_t>(warm + req.tenant % kMatrices)]
            .Add(tally.latency_ms.back(),
                 gauge.Share(req.intended - kBacklog, observed));
    }
    tally.lag_ms.push_back(lag * 1e3);
    tally.submit_us.push_back(submit * 1e6);
    tally.queue_ms.push_back(queue_s * 1e3);
    tally.exec_ms.push_back(exec_s * 1e3);
    tally.route_ms.push_back(
        (Seconds(req.submit_start, observed) - queue_s - exec_s) * 1e3);
}

struct Setup {
    std::unique_ptr<AzulFleet> fleet;
    std::vector<SessionId> sessions;
    std::vector<double> open_cold_ms, open_hit_ms;
    std::string cache_dir;
};

/** Starts a fleet on a fresh mapping cache and opens every tenant. */
Setup
OpenFleet(const RunArgs& args, const std::vector<Tenant>& tenants, int rep,
          Checker& checker)
{
    Setup s;
    s.cache_dir = args.workdir + "/serve-cache-" +
                  std::to_string(::getpid()) + "-" + std::to_string(rep);
    std::filesystem::remove_all(s.cache_dir);
    FleetOptions fopts;
    fopts.num_instances = kInstances;
    fopts.service.num_threads = 1;
    fopts.service.mapping_cache_dir = s.cache_dir;
    fopts.record_replay_log = false;
    {
        ScopedSpan span("fleet.create", "fleet");
        StatusOr<std::unique_ptr<AzulFleet>> fleet = AzulFleet::Create(fopts);
        checker.CheckOk(fleet.ok(), "fleet create");
        if (!fleet.ok()) {
            return s;
        }
        s.fleet = *std::move(fleet);
    }
    const AzulOptions opts =
        BaseOptions(args.tiny, EngineKind::kFunctional, kTol, 1000);
    for (int i = 0; i < kSessions; ++i) {
        const auto t0 = Clock::now();
        StatusOr<SessionId> id = [&] {
            ScopedSpan span("fleet.open_session", "fleet");
            const Tenant& t = tenants[static_cast<std::size_t>(i)];
            return s.fleet->OpenSession(*t.base, opts,
                                        "tenant-" + std::to_string(i));
        }();
        const double ms = Seconds(t0, Clock::now()) * 1e3;
        checker.CheckOk(id.ok(), "open tenant " + std::to_string(i));
        s.sessions.push_back(id.ok() ? *id : 0);
        // Tenants i and i + kMatrices share a matrix: the first open of
        // a matrix misses the cache, the second hits it.
        (i < kMatrices ? s.open_cold_ms : s.open_hit_ms).push_back(ms);
    }
    return s;
}

/** Open-loop Poisson phase: returns the collector's tally. */
Tally
RunOpenLoop(const RunArgs& args, Setup& s, std::vector<Tenant>& tenants,
            double seconds, HostGauge& gauge, Checker& checker)
{
    Rng arrivals(MixSeed(args.seed, 0x0a11, 0));
    WorkQueue<Issued> handoff;
    Tally tally;
    std::thread collector([&] {
        while (std::optional<Issued> req = handoff.Pop()) {
            Collect(*s.fleet, gauge, *req, checker, tally);
        }
    });
    // Closes the handoff and joins the collector on every way out of
    // the generator loop, exceptions included.
    struct StopCollector {
        WorkQueue<Issued>& handoff;
        std::thread& collector;
        ~StopCollector()
        {
            handoff.Close();
            collector.join();
        }
    };
    const auto start = Clock::now();
    {
        const StopCollector stop{handoff, collector};
        double t = 0.0;
        std::int64_t sent = 0;
        std::exponential_distribution<double> gap(kOpenLoopRps);
        while (true) {
            t += gap(arrivals.engine());
            if (t >= seconds) {
                break;
            }
            const auto intended =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(t));
            // Tenants take turns, so each offers the same load.
            const int i = static_cast<int>(sent++ % kSessions);
            // Open loop: arrivals keep their schedule however the fleet
            // is doing; falling behind shows up as generator lag.
            gauge.Settle();
            std::this_thread::sleep_until(intended);
            Issued req =
                SubmitNext(*s.fleet, s.sessions[static_cast<std::size_t>(i)],
                           tenants[static_cast<std::size_t>(i)], i);
            req.intended = intended;
            handoff.TryPush(std::move(req));
        }
    }
    tally.span_s = Seconds(start, std::max(tally.last_done, start));
    return tally;
}

/** Solves completed and the seconds they took. */
struct Completed {
    double solves = 0.0;
    double seconds = 0.0;
    /** Solves completed in each kSliceSeconds slice of the phase, and
     *  the time from the previous slice's last completion to its own.
     *  Over the kept slices, solves per second is the throughput:
     *  pooled, since a batch completes 8 solves in one slice. */
    Gauged slice_solves, slice_seconds;

    Completed&
    operator+=(const Completed& o)
    {
        solves += o.solves;
        seconds += o.seconds;
        slice_solves.Append(o.slice_solves);
        slice_seconds.Append(o.slice_seconds);
        return *this;
    }
    double rate() const { return solves / std::max(seconds, 1e-9); }
    /** Solves per second over the kept slices. */
    double KeptRate(std::size_t min_kept) const
    {
        double n = 0.0, s = 0.0;
        for (const double v : slice_solves.Kept(min_kept)) {
            n += v;
        }
        for (const double v : slice_seconds.Kept(min_kept)) {
            s += v;
        }
        return s > 0.0 ? n / s : 0.0;
    }
};

/** Closed-loop saturation: each tenant keeps kWindow requests
 *  outstanding; counts the solves completed within `seconds`. */
Completed
RunClosedLoop(Setup& s, std::vector<Tenant>& tenants, double seconds,
              HostGauge& gauge, Checker& checker)
{
    std::deque<Issued> outstanding;
    const auto submit = [&](int i) {
        const std::size_t k = static_cast<std::size_t>(i);
        gauge.Settle();
        Issued req = SubmitNext(*s.fleet, s.sessions[k], tenants[k], i);
        req.intended = req.submit_start;
        outstanding.push_back(std::move(req));
    };
    const auto start = Clock::now();
    for (int w = 0; w < kWindow; ++w) {
        for (int i = 0; i < kSessions; ++i) {
            submit(i);
        }
    }
    Tally tally;
    Completed done;
    const std::size_t slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kSliceSeconds));
    const double slice_s = seconds / static_cast<double>(slices);
    // Per slice: solves completed in it and its last completion.
    std::vector<double> slice_solves(slices, 0.0);
    std::vector<Clock::time_point> slice_last(slices, start);
    double elapsed = 0.0;
    while (!outstanding.empty()) {
        Issued req = std::move(outstanding.front());
        outstanding.pop_front();
        const std::int64_t before = tally.solves;
        Collect(*s.fleet, gauge, req, checker, tally);
        const auto now = Clock::now();
        elapsed = Seconds(start, now);
        if (elapsed < seconds) {
            const double n = static_cast<double>(tally.solves - before);
            done.solves += n;
            const std::size_t slice =
                static_cast<std::size_t>(elapsed / slice_s);
            if (slice < slices) {
                slice_solves[slice] += n;
                slice_last[slice] = now;
            }
            submit(req.tenant);
        }
    }
    done.seconds = std::min(elapsed, seconds);
    Clock::time_point prev = start;
    for (std::size_t k = 0; k < slices; ++k) {
        if (slice_solves[k] > 0.0) {
            const double share = gauge.Share(prev, slice_last[k]);
            done.slice_solves.Add(slice_solves[k], share);
            done.slice_seconds.Add(Seconds(prev, slice_last[k]), share);
            prev = slice_last[k];
        }
    }
    return done;
}

} // namespace

RunResult
RunServeMixed(const RunArgs& args)
{
    RunResult out;
    Checker checker(args.corrupt_check);
    // Before the fleet starts its threads: they inherit the CPU.
    HostGauge gauge;
    HostReference host_ref;
    std::vector<SuiteMatrix> suite =
        MakeBenchmarkSuite(args.tiny ? 0.02 : kScale);
    std::vector<Tenant> tenants(kSessions);
    std::vector<std::shared_ptr<const CsrMatrix>> mats;
    for (int m = 0; m < kMatrices; ++m) {
        mats.push_back(std::make_shared<CsrMatrix>(
            std::move(suite[static_cast<std::size_t>(kSuiteIndex[m])].a)));
    }
    for (int i = 0; i < kSessions; ++i) {
        Tenant& t = tenants[static_cast<std::size_t>(i)];
        t.rng = Rng(MixSeed(args.seed, 0x7e4a, static_cast<std::uint64_t>(i)));
        t.base = mats[static_cast<std::size_t>(i % kMatrices)];
        t.current = t.base;
    }

    // ---- Set-up: fleet + every session, kSetupReps times -------------------
    const int reps = (args.tiny || args.trace) ? 1 : kSetupReps;
    Gauged setup_s;
    Setup s;
    for (int r = 0; r < reps; ++r) {
        if (s.fleet) {
            s.fleet.reset();
            std::filesystem::remove_all(s.cache_dir);
        }
        gauge.Settle();
        const auto t0 = Clock::now();
        s = OpenFleet(args, tenants, r, checker);
        const auto t1 = Clock::now();
        setup_s.Add(Seconds(t0, t1), gauge.Share(t0, t1));
        if (!s.fleet) {
            out.attempted = checker.attempted();
            out.failed = checker.failed();
            return out;
        }
    }

    // ---- Timed phases: open loop (latency), then closed loop (throughput)
    const double open_s = args.seconds * kOpenShare;
    const double closed_s = args.seconds - open_s;
    host_ref.Sample();
    const Tally open =
        RunOpenLoop(args, s, tenants, open_s, gauge, checker);
    host_ref.Sample();
    double throughput = 0.0;
    double overhead_pct = 0.0;
    Completed closed;
    if (args.trace) {
        const auto [plain, traced] = AlternateTracing<Completed>(
            closed_s, 0.5, [&](double slice_s) {
                return RunClosedLoop(s, tenants, slice_s, gauge, checker);
            });
        throughput = traced.rate();
        overhead_pct =
            (plain.KeptRate(1) / traced.KeptRate(1) - 1.0) * 100.0;
        closed = traced;
    } else {
        closed = RunClosedLoop(s, tenants, closed_s, gauge, checker);
        throughput = closed.KeptRate(kMinKept);
    }
    host_ref.Sample();
    const FleetStats fstats = s.fleet->stats();
    s.fleet.reset();
    std::filesystem::remove_all(s.cache_dir);
    // Read before the cycle-engine reference systems below are built.
    const double peak_rss_mb = PeakRssMb();

    // ---- Simulated reference: the tenants' matrices on the cycle engine
    const AzulOptions copts =
        BaseOptions(args.tiny, EngineKind::kCycle, 0.0, kFixedIters);
    std::vector<double> gflops, compile_ms, partition_s;
    std::vector<AzulSystem> refs;
    std::vector<Vector> ref_b;
    for (int m = 0; m < kMatrices; ++m) {
        StatusOr<AzulSystem> sys = [&] {
            ScopedSpan span("core.create", "core");
            return AzulSystem::Create(*mats[static_cast<std::size_t>(m)],
                                      copts);
        }();
        checker.CheckOk(sys.ok(), "cycle reference create");
        if (!sys.ok()) {
            continue;
        }
        compile_ms.push_back(sys->compile_seconds() * 1e3);
        partition_s.push_back(sys->mapping_seconds());
        Rng rng(MixSeed(args.seed, 0xc1c, static_cast<std::uint64_t>(m)));
        ref_b.push_back(
            RandomVector(rng, sys->matrix().rows()));
        gflops.push_back(sys->Solve(ref_b.back()).gflops);
        refs.push_back(*std::move(sys));
    }

    for (const auto& [name, ms] : open.by_class) {
        std::printf("%-12s median latency %8.2f ms over %zu requests\n",
                    name.c_str(), Median(ms), ms.size());
    }

    out.attempted = checker.attempted();
    out.failed = checker.failed();
    out.SetE2e("setup_s", setup_s.LeastContended());
    out.SetE2e("throughput", throughput);
    out.SetE2e("latency_p50_ms",
               GroupedKeptPercentile(open.single_ms, kMinKept, 50));
    out.SetE2e("latency_p90_ms",
               GroupedKeptPercentile(open.single_ms, kMinKept, 90));
    out.SetE2e("peak_rss_mb", peak_rss_mb);
    const double solves =
        static_cast<double>(std::max<std::int64_t>(open.solves, 1));
    out.SetE2e("iters_per_solve", open.iterations / solves);
    out.SetE2e("sim_gflops", GeoMean(gflops));
    // Also kept in untraced runs, where main prints them as a note.
    out.SetLayer("host.ref_ms", host_ref.MedianMs());
    out.SetLayer("host.ref_drift_pct", host_ref.DriftPct());
    Gauged all_singles;
    for (const Gauged& g : open.single_ms) {
        all_singles.Append(g);
    }
    out.SetLayer("host.uncontended_frac",
                 static_cast<double>(all_singles.CountKept()) /
                     static_cast<double>(
                         std::max<std::size_t>(all_singles.values.size(), 1)));
    if (!args.trace) {
        return out;
    }

    std::vector<const CsrMatrix*> originals, permuted;
    std::vector<AzulSystem*> cycle;
    std::vector<const Vector*> rhs;
    for (std::size_t m = 0; m < refs.size(); ++m) {
        originals.push_back(mats[m].get());
        permuted.push_back(&refs[m].matrix());
        cycle.push_back(&refs[m]);
        rhs.push_back(&ref_b[m]);
    }
    MeasureColorAndIc0(originals, permuted, out);
    MeasureCycleLayers(cycle, rhs, out);
    out.SetLayer("solver.warm_frac", static_cast<double>(open.warm) / solves);
    out.SetLayer("mapping.cache_hits",
                 static_cast<double>(fstats.service.mapping_cache_hits));
    out.SetLayer("mapping.cache_misses",
                 static_cast<double>(fstats.service.mapping_cache_misses));
    out.SetLayer("mapping.partition_s", Mean(partition_s) * kMatrices);
    out.SetLayer("dataflow.compile_ms", Mean(compile_ms));
    out.SetLayer("sim.functional.ns_per_nnz_iter",
                 open.nnz_iters > 0.0 ? open.exec_ns / open.nnz_iters : 0.0);
    std::vector<double> opens = s.open_cold_ms;
    opens.insert(opens.end(), s.open_hit_ms.begin(), s.open_hit_ms.end());
    out.SetLayer("core.create_ms", Mean(opens));
    out.SetLayer("service.open_cold_ms", Mean(s.open_cold_ms));
    out.SetLayer("service.open_hit_ms", Mean(s.open_hit_ms));
    out.SetLayer("service.queue_p50_ms", Pct(open.queue_ms, 50));
    out.SetLayer("service.queue_p90_ms", Pct(open.queue_ms, 90));
    out.SetLayer("service.exec_p50_ms", Pct(open.exec_ms, 50));
    out.SetLayer("service.exec_p90_ms", Pct(open.exec_ms, 90));
    out.SetLayer("fleet.submit_us", Median(open.submit_us));
    out.SetLayer("fleet.route_ms", Median(open.route_ms));
    out.SetLayer("load.gen_lag_p99_ms", Pct(open.lag_ms, 99));
    out.SetLayer("load.offered_rps",
                 static_cast<double>(open.latency_ms.size()) / open_s);
    out.SetLayer("load.achieved_rps",
                 static_cast<double>(open.latency_ms.size()) /
                     std::max(open.span_s, 1e-9));
    out.SetLayer("trace.overhead_pct", overhead_pct);
    AddSelfTimeMetrics(out);
    return out;
}

} // namespace azul::perfbench
