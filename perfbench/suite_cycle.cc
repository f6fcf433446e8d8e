/**
 * @file
 * suite_cycle: the paper's own evaluation path (NOTES.md). The bench
 * suite at scale 0.25 on the 8x8 grid, mapped cold (no mapping cache),
 * PCG + IC(0) for a fixed iteration count on the cycle-accurate
 * Machine with one simulation thread. Cold hypergraph partitioning
 * dominates set-up and the cycle engine dominates the timed phase;
 * service, fleet and the functional engine do no work here.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "sparse/generators.h"
#include "util/rng.h"

namespace azul::perfbench {

namespace {

/**
 * Suite scale. Not the paper's 1.0: there a solve took 60-170 ms, longer
 * than the host's uncontended spells (~20 ms), so on a busy host almost
 * no solve ran uncontended and the figures followed the host (NOTES.md,
 * "Steadiness"). At 0.25 a solve takes a quarter of that.
 */
constexpr double kScale = 0.25;
/** Set-up repetitions; the least contended one per matrix makes
 *  setup_s. */
constexpr int kSetupReps = 3;
/** Solves per matrix the figures rest on: the timed phase runs until
 *  every matrix has this many uncontended ones (HostGauge), or else
 *  keeps its least contended ones. Every matrix's p90 then rests on
 *  >= 4 samples beyond it, >= 32 over the suite. */
constexpr std::size_t kMinKept = 40;
/** The timed phase stops here even if too few solves ran uncontended. */
constexpr double kMaxTimedSeconds = 35.0;

struct Problem {
    std::string name;
    CsrMatrix a;
    Vector b;
};

/** The fixed suite with right-hand sides drawn from the seed. */
std::vector<Problem>
MakeProblems(const RunArgs& args)
{
    std::vector<Problem> out;
    for (SuiteMatrix& sm : MakeBenchmarkSuite(args.tiny ? 0.02 : kScale)) {
        Problem p;
        p.name = sm.name;
        Rng rng(MixSeed(args.seed, out.size(), 0x5c1));
        p.b = RandomVector(rng, sm.a.rows());
        p.a = std::move(sm.a);
        out.push_back(std::move(p));
    }
    return out;
}

bool
SameBits(const Vector& x, const Vector& y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

struct TimedPhase {
    /** Solve latencies, one list per matrix. */
    std::vector<Gauged> latency_ms;
    double host_seconds = 0.0;
    double sim_cycles = 0.0;
    /** Iterations the untraced solves report (traced ones drive the
     *  engine call by call and report none). */
    double iterations = 0.0;
    std::int64_t reported = 0;

    TimedPhase&
    operator+=(const TimedPhase& o)
    {
        latency_ms.resize(std::max(latency_ms.size(), o.latency_ms.size()));
        for (std::size_t m = 0; m < o.latency_ms.size(); ++m) {
            latency_ms[m].Append(o.latency_ms[m]);
        }
        host_seconds += o.host_seconds;
        sim_cycles += o.sim_cycles;
        iterations += o.iterations;
        reported += o.reported;
        return *this;
    }
};

/** Solves every matrix round after round until `seconds` have passed
 *  and every matrix has `min_kept` uncontended solves (or
 *  kMaxTimedSeconds passed); each answer must equal the first one. */
TimedPhase
RunTimed(std::vector<AzulSystem>& systems, const std::vector<Problem>& probs,
         const std::vector<Vector>& first_x, double seconds,
         std::size_t min_kept,
         bool traced, HostGauge& gauge, Checker& checker,
         std::vector<double>& prologue_ms, std::vector<double>& iter_ms)
{
    TimedPhase out;
    out.latency_ms.resize(systems.size());
    const auto start = Clock::now();
    while ((Seconds(start, Clock::now()) < seconds ||
            FewestKept(out.latency_ms) < min_kept) &&
           Seconds(start, Clock::now()) < kMaxTimedSeconds) {
        for (std::size_t m = 0; m < systems.size(); ++m) {
            gauge.Settle();
            const auto t0 = Clock::now();
            Vector x;
            Cycle cycles = 0;
            if (traced) {
                x = TimedEngineSolve(systems[m], probs[m].b, prologue_ms,
                                     iter_ms);
                cycles = systems[m].engine().stats().cycles;
            } else {
                SolveReport rep = systems[m].Solve(probs[m].b);
                cycles = rep.run.stats.cycles;
                out.iterations += static_cast<double>(rep.run.iterations);
                ++out.reported;
                x = std::move(rep.run.x);
            }
            const auto t1 = Clock::now();
            const double dt = Seconds(t0, t1);
            out.latency_ms[m].Add(dt * 1e3, gauge.Share(t0, t1));
            out.host_seconds += dt;
            out.sim_cycles += static_cast<double>(cycles);
            checker.CheckOk(SameBits(x, first_x[m]),
                            probs[m].name + ": repeated solve changed");
        }
    }
    return out;
}

} // namespace

RunResult
RunSuiteCycle(const RunArgs& args)
{
    RunResult out;
    Checker checker(args.corrupt_check);
    HostGauge gauge;
    HostReference host_ref;
    const AzulOptions opts =
        BaseOptions(args.tiny, EngineKind::kCycle, 0.0, kFixedIters);
    const std::vector<Problem> probs = MakeProblems(args);
    const std::size_t nm = probs.size();

    // ---- Set-up: build every system kSetupReps times -----------------------
    const int reps = (args.tiny || args.trace) ? 1 : kSetupReps;
    std::vector<Gauged> create_s(nm);
    std::vector<AzulSystem> systems;
    std::vector<double> partition_s, compile_ms;
    for (int r = 0; r < reps; ++r) {
        systems.clear();
        partition_s.clear();
        compile_ms.clear();
        for (std::size_t m = 0; m < nm; ++m) {
            gauge.Settle();
            const auto t0 = Clock::now();
            StatusOr<AzulSystem> sys = [&] {
                ScopedSpan s("core.create", "core");
                return AzulSystem::Create(probs[m].a, opts);
            }();
            const auto t1 = Clock::now();
            create_s[m].Add(Seconds(t0, t1), gauge.Share(t0, t1));
            checker.CheckOk(sys.ok(), probs[m].name + ": create " +
                                          sys.status().ToString());
            if (!sys.ok()) {
                out.attempted = checker.attempted();
                out.failed = checker.failed();
                return out;
            }
            partition_s.push_back(sys->mapping_seconds());
            compile_ms.push_back(sys->compile_seconds() * 1e3);
            systems.push_back(*std::move(sys));
        }
    }
    double setup_s = 0.0;
    std::vector<double> create_ms;
    for (const Gauged& g : create_s) {
        setup_s += g.LeastContended();
        create_ms.push_back(g.LeastContended() * 1e3);
    }

    // ---- First solve per matrix: the answer every repeat must match ------
    std::vector<SolveReport> first(nm);
    std::vector<Vector> first_x(nm);
    std::vector<double> gflops;
    for (std::size_t m = 0; m < nm; ++m) {
        first[m] = systems[m].Solve(probs[m].b);
        first_x[m] = first[m].run.x;
        gflops.push_back(first[m].gflops);
    }

    // ---- Timed phase -------------------------------------------------------
    std::vector<double> prologue_ms, iter_ms;
    host_ref.Sample();
    TimedPhase timed;
    double overhead_pct = 0.0;
    if (args.trace) {
        const auto [plain, traced] = AlternateTracing<TimedPhase>(
            args.seconds, 1.0, [&](double slice_s) {
                return RunTimed(systems, probs, first_x, slice_s, 0,
                                Tracer::Get().enabled(), gauge, checker,
                                prologue_ms, iter_ms);
            });
        timed = traced;
        overhead_pct =
            (RoundRate(plain.latency_ms, 1) / RoundRate(traced.latency_ms, 1) -
             1.0) *
            100.0;
    } else {
        timed = RunTimed(systems, probs, first_x, args.seconds, kMinKept,
                         false, gauge, checker, prologue_ms, iter_ms);
    }
    host_ref.Sample();
    // Read before the check below builds its functional systems.
    const double peak_rss_mb = PeakRssMb();

    // ---- Check: first solve vs the functional engine on the same mapping ---
    double iterations = timed.iterations;
    std::int64_t reported = timed.reported;
    for (std::size_t m = 0; m < nm; ++m) {
        iterations += static_cast<double>(first[m].run.iterations);
        ++reported;
        AzulOptions fopts = opts;
        fopts.engine = EngineKind::kFunctional;
        fopts.precomputed_mapping = &systems[m].mapping();
        StatusOr<AzulSystem> fsys = AzulSystem::Create(probs[m].a, fopts);
        checker.CheckOk(fsys.ok(), probs[m].name + ": functional create");
        if (fsys.ok()) {
            const SolveReport frep = fsys->Solve(probs[m].b);
            checker.CheckBitIdentical(probs[m].a, probs[m].b, first_x[m],
                                      frep.run.x,
                                      first[m].run.residual_norm, 1e-6,
                                      probs[m].name);
        }
    }
    std::vector<double> solve_ms;
    for (std::size_t m = 0; m < nm; ++m) {
        const std::vector<double> ms =
            timed.latency_ms[m].Kept(kMinKept);
        std::printf("%-16s median solve %8.2f ms over %zu of %zu solves\n",
                    probs[m].name.c_str(), Median(ms), ms.size(),
                    timed.latency_ms[m].values.size());
        solve_ms.insert(solve_ms.end(), ms.begin(), ms.end());
    }

    out.attempted = checker.attempted();
    out.failed = checker.failed();
    out.SetE2e("setup_s", setup_s);
    out.SetE2e("throughput", RoundRate(timed.latency_ms, kMinKept));
    out.SetE2e("latency_p50_ms",
               GroupedKeptPercentile(timed.latency_ms, kMinKept, 50));
    out.SetE2e("latency_p90_ms",
               GroupedKeptPercentile(timed.latency_ms, kMinKept, 90));
    out.SetE2e("peak_rss_mb", peak_rss_mb);
    out.SetE2e("iters_per_solve",
               iterations / static_cast<double>(reported));
    out.SetE2e("sim_gflops", GeoMean(gflops));
    // Also kept in untraced runs, where main prints them as a note.
    out.SetLayer("host.ref_ms", host_ref.MedianMs());
    out.SetLayer("host.ref_drift_pct", host_ref.DriftPct());
    Gauged all_solves;
    for (const Gauged& g : timed.latency_ms) {
        all_solves.Append(g);
    }
    out.SetLayer("host.uncontended_frac",
                 static_cast<double>(all_solves.CountKept()) /
                     static_cast<double>(all_solves.values.size()));
    if (!args.trace) {
        return out;
    }

    // ---- Traced run: out-of-band layer calls, one per matrix ---------------
    std::vector<const CsrMatrix*> originals, permuted;
    std::vector<AzulSystem*> cycle;
    std::vector<const Vector*> rhs;
    for (std::size_t m = 0; m < nm; ++m) {
        originals.push_back(&probs[m].a);
        permuted.push_back(&systems[m].matrix());
        cycle.push_back(&systems[m]);
        rhs.push_back(&probs[m].b);
    }
    MeasureColorAndIc0(originals, permuted, out);
    MeasureCycleLayers(cycle, rhs, out);
    double partition_total = 0.0;
    for (const double s : partition_s) {
        partition_total += s;
    }
    out.SetLayer("mapping.partition_s", partition_total);
    out.SetLayer("dataflow.compile_ms", Mean(compile_ms));
    // The timed phase's rate and call times replace the helper's
    // single-walk figures: they rest on many more solves.
    out.SetLayer("sim.cycle.rate_mcyc_s",
                 timed.sim_cycles / timed.host_seconds / 1e6);
    out.SetLayer("sim.cycle.iter_ms", Median(iter_ms));
    out.SetLayer("sim.cycle.prologue_ms", Median(prologue_ms));
    out.SetLayer("core.create_ms", Mean(create_ms));
    out.SetLayer("core.solve_ms", Median(solve_ms));
    out.SetLayer("trace.overhead_pct", overhead_pct);
    AddSelfTimeMetrics(out);
    return out;
}

} // namespace azul::perfbench
