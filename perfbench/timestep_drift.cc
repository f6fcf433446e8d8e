/**
 * @file
 * timestep_drift: the Sec II-C time-stepping loop (NOTES.md). Every
 * step rewrites the matrix through the public core API: UpdateValues
 * refactors IC(0), recompiles and re-records the functional tape, and
 * every kDriftEvery-th step a contact-edge UpdateMatrix either reuses
 * the mapping or repartitions. A warm-started functional solve
 * follows. Two campaigns alternate: a structured grid and an
 * unstructured FEM-like mesh, both sized to fit per-tile SRAM. Same
 * core/dataflow/sim layers as serve_mixed, but write-heavy and with
 * no service or fleet.
 */
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "sparse/coo.h"
#include "sparse/generators.h"
#include "util/rng.h"

namespace azul::perfbench {

namespace {

constexpr int kSetupReps = 5;
/** Steps per campaign that always run (and make iters_per_solve), so
 *  the deterministic metrics do not depend on host speed. */
constexpr int kMinSteps = 120;
/** Every kDriftEvery-th step adds kDriftEdges contact edges. */
constexpr int kDriftEvery = 6;
constexpr int kDriftEdges = 24;
constexpr double kAmplitude = 0.05;
constexpr int kPeriod = 40;
/** Steps per campaign the figures rest on: the timed phase runs until
 *  each campaign has this many uncontended ones (HostGauge), or else
 *  keeps its least contended ones. */
constexpr std::size_t kMinKept = 60;
/** The timed phase stops here even if too few steps ran uncontended. */
constexpr double kMaxTimedSeconds = 35.0;
constexpr double kTol = 1e-8;
constexpr double kResidualFactor = 10.0;

struct ContactEdge {
    Index i = 0;
    Index j = 0;
    double weight = 0.0;
};

/** One time-stepping campaign and its evolving inputs. */
struct Campaign {
    std::string name;
    CsrMatrix base;
    Vector b0, b1; //!< the load is b0 + small * b1 at step t
    Rng edge_rng;
    std::vector<ContactEdge> edges;
    int step = 0;
};

/**
 * The step-t matrix: base values scaled by the smooth drift factor
 * plus every contact edge so far. Each edge adds -w off-diagonal and
 * +w to both diagonals, so the matrix stays SPD.
 */
CsrMatrix
StepMatrix(const Campaign& c, double scale)
{
    CooMatrix coo = c.base.ToCoo();
    for (Triplet& t : coo.mutable_entries()) {
        t.val *= scale;
    }
    for (const ContactEdge& e : c.edges) {
        const double w = e.weight * scale;
        coo.Add(e.i, e.j, -w);
        coo.Add(e.j, e.i, -w);
        coo.Add(e.i, e.i, w);
        coo.Add(e.j, e.j, w);
    }
    coo.Canonicalize();
    return CsrMatrix::FromCoo(coo);
}

std::vector<Campaign>
MakeCampaigns(const RunArgs& args)
{
    const Index side = args.tiny ? 12 : 48;
    const Index mesh_n = args.tiny ? 150 : 2000;
    std::vector<Campaign> out(2);
    out[0].name = "grid";
    out[0].base = Grid2dLaplacian(side, side);
    out[1].name = "mesh";
    // Fixed meshes: the seed drives the loads and the drift schedule,
    // so the simulated metrics do not move with it.
    out[1].base = FemLikeSpd(mesh_n, 8, 0xfe3);
    for (std::size_t c = 0; c < out.size(); ++c) {
        Rng rng(MixSeed(args.seed, 0x7157, c));
        out[c].b0 = RandomVector(rng, out[c].base.rows());
        out[c].b1 = RandomVector(rng, out[c].base.rows());
        out[c].edge_rng = Rng(MixSeed(args.seed, 0xed9e, c));
    }
    return out;
}

struct Tallies {
    /** Step latencies, one list per campaign. */
    std::vector<Gauged> step_ms;
    std::vector<double> update_values_ms, update_matrix_ms, solve_ms;
    std::vector<double> tape_record_ms, steady_ns_per_nnz_iter;
    double iterations = 0.0; //!< over each campaign's first min_steps
    std::int64_t counted = 0;

    Tallies&
    operator+=(const Tallies& o)
    {
        step_ms.resize(std::max(step_ms.size(), o.step_ms.size()));
        for (std::size_t c = 0; c < o.step_ms.size(); ++c) {
            step_ms[c].Append(o.step_ms[c]);
        }
        for (auto [to, from] :
             {std::pair{&update_values_ms, &o.update_values_ms},
              std::pair{&update_matrix_ms, &o.update_matrix_ms},
              std::pair{&solve_ms, &o.solve_ms},
              std::pair{&tape_record_ms, &o.tape_record_ms},
              std::pair{&steady_ns_per_nnz_iter, &o.steady_ns_per_nnz_iter}}) {
            to->insert(to->end(), from->begin(), from->end());
        }
        iterations += o.iterations;
        counted += o.counted;
        return *this;
    }
};

/**
 * One step of campaign `c` on `sys`: build the step's inputs, update
 * the matrix, warm-solve, check the answer. With `measure_tape`, the
 * solve is repeated from the same initial guess: the first run records
 * the tape, the second replays it, and their difference is the tape
 * recording time.
 */
void
RunStep(Campaign& c, AzulSystem& sys, bool measure_tape, int min_steps,
        HostGauge& gauge, Checker& checker, Gauged& step_ms,
        Tallies& tallies)
{
    ++c.step;
    const int t = c.step;
    const double scale = 1.0 + kAmplitude * std::sin(2.0 * M_PI * t / kPeriod);
    const bool pattern = t % kDriftEvery == 0;
    if (pattern) {
        const Index n = c.base.rows();
        for (int e = 0; e < kDriftEdges; ++e) {
            ContactEdge edge;
            edge.i = c.edge_rng.UniformInt(0, n - 1);
            edge.j = c.edge_rng.UniformInt(0, n - 1);
            if (edge.i == edge.j) {
                edge.j = (edge.j + 1) % n;
            }
            edge.weight = c.edge_rng.UniformDouble(0.05, 0.15);
            c.edges.push_back(edge);
        }
    }
    const CsrMatrix a = StepMatrix(c, scale);
    Vector b = c.b0;
    const double load = 0.02 * std::sin(2.0 * M_PI * t / kPeriod);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] += load * c.b1[i];
    }
    const Vector x0 = sys.last_solution();

    gauge.Settle();
    const auto t0 = Clock::now();
    Status st;
    if (pattern) {
        ScopedSpan span("core.update_matrix", "core");
        st = sys.UpdateMatrix(a);
    } else {
        ScopedSpan span("core.update_values", "core");
        st = sys.UpdateValues(a);
    }
    const auto t1 = Clock::now();
    checker.CheckOk(st.ok(), c.name + ": update " + st.ToString());
    SolveReport rep = [&] {
        ScopedSpan span("core.solve", "core");
        return sys.Solve(b);
    }();
    const auto t2 = Clock::now();
    const double share = gauge.Share(t0, t2);
    checker.CheckSolve(a, b, rep.run.x, rep.run.converged, kTol,
                       kResidualFactor, c.name + " step " + std::to_string(t));

    const double update_ms = Seconds(t0, t1) * 1e3;
    const double solve_ms = Seconds(t1, t2) * 1e3;
    step_ms.Add(update_ms + solve_ms, share);
    (pattern ? tallies.update_matrix_ms : tallies.update_values_ms)
        .push_back(update_ms);
    tallies.solve_ms.push_back(solve_ms);
    if (t <= min_steps) {
        tallies.iterations += static_cast<double>(rep.run.iterations);
        ++tallies.counted;
    }
    if (measure_tape && !x0.empty()) {
        // Same guess, same answer: this replay records no tape.
        const auto t3 = Clock::now();
        const SolveReport again = [&] {
            ScopedSpan span("core.solve", "core");
            return sys.Solve(b, RunBudget{}, x0);
        }();
        const double steady_ms = Seconds(t3, Clock::now()) * 1e3;
        checker.CheckOk(again.run.x == rep.run.x,
                        c.name + ": repeated solve changed");
        tallies.tape_record_ms.push_back(solve_ms - steady_ms);
        tallies.steady_ns_per_nnz_iter.push_back(
            steady_ms * 1e6 /
            (static_cast<double>(a.nnz()) *
             static_cast<double>(std::max<Index>(again.run.iterations, 1))));
    }
}

/** Alternates the campaigns until `seconds` have passed, each ran at
 *  least `min_steps` steps and `min_kept` of them uncontended (or
 *  kMaxTimedSeconds passed); iterations are counted over min_steps. */
Tallies
RunTimed(std::vector<Campaign>& campaigns, std::vector<AzulSystem>& systems,
         double seconds, bool measure_tape, HostGauge& gauge,
         Checker& checker, int min_steps, std::size_t min_kept)
{
    Tallies tallies;
    tallies.step_ms.resize(campaigns.size());
    const auto start = Clock::now();
    for (int round = 0;
         round < min_steps ||
         ((Seconds(start, Clock::now()) < seconds ||
           FewestKept(tallies.step_ms) < min_kept) &&
          Seconds(start, Clock::now()) < kMaxTimedSeconds);
         ++round) {
        for (std::size_t c = 0; c < campaigns.size(); ++c) {
            RunStep(campaigns[c], systems[c], measure_tape, min_steps, gauge,
                    checker, tallies.step_ms[c], tallies);
        }
    }
    return tallies;
}

} // namespace

RunResult
RunTimestepDrift(const RunArgs& args)
{
    RunResult out;
    Checker checker(args.corrupt_check);
    HostGauge gauge;
    HostReference host_ref;
    std::vector<Campaign> campaigns = MakeCampaigns(args);
    AzulOptions opts =
        BaseOptions(args.tiny, EngineKind::kFunctional, kTol, 1000);
    opts.warm_start = true;

    // ---- Set-up: build both systems kSetupReps times -----------------------
    const int reps = (args.tiny || args.trace) ? 1 : kSetupReps;
    Gauged setup_s;
    std::vector<double> create_ms, compile_ms;
    std::vector<AzulSystem> systems;
    double partition_s = 0.0;
    for (int r = 0; r < reps; ++r) {
        systems.clear();
        partition_s = 0.0;
        gauge.Settle();
        const auto t0 = Clock::now();
        for (const Campaign& c : campaigns) {
            const auto tc = Clock::now();
            StatusOr<AzulSystem> sys = [&] {
                ScopedSpan span("core.create", "core");
                return AzulSystem::Create(c.base, opts);
            }();
            create_ms.push_back(Seconds(tc, Clock::now()) * 1e3);
            checker.CheckOk(sys.ok(), c.name + ": create " +
                                          sys.status().ToString());
            if (!sys.ok()) {
                out.attempted = checker.attempted();
                out.failed = checker.failed();
                return out;
            }
            checker.CheckOk(sys->sram_usage().fits,
                            c.name + ": does not fit per-tile SRAM");
            compile_ms.push_back(sys->compile_seconds() * 1e3);
            partition_s += sys->mapping_seconds();
            systems.push_back(*std::move(sys));
        }
        const auto t1 = Clock::now();
        setup_s.Add(Seconds(t0, t1), gauge.Share(t0, t1));
    }

    // The step-0 mappings, for the simulated reference below.
    std::vector<DataMapping> step0_mappings;
    for (const AzulSystem& sys : systems) {
        step0_mappings.push_back(sys.mapping());
    }

    // ---- Timed phase -------------------------------------------------------
    const int min_steps = args.tiny ? 8 : kMinSteps;
    host_ref.Sample();
    Tallies timed;
    double overhead_pct = 0.0;
    if (args.trace) {
        const auto [plain, traced] = AlternateTracing<Tallies>(
            args.seconds, 1.0, [&](double slice_s) {
                return RunTimed(campaigns, systems, slice_s,
                                Tracer::Get().enabled(), gauge, checker, 0,
                                0);
            });
        timed = traced;
        overhead_pct =
            (GroupedKeptPercentile(traced.step_ms, 1, 50) /
                 GroupedKeptPercentile(plain.step_ms, 1, 50) -
             1.0) *
            100.0;
    } else {
        timed = RunTimed(campaigns, systems, args.seconds, false, gauge,
                         checker, min_steps, args.tiny ? 0 : kMinKept);
    }
    host_ref.Sample();
    // Read before the simulated reference below builds its systems.
    const double peak_rss_mb = PeakRssMb();

    // ---- Simulated reference: each campaign's step-0 matrix on the cycle
    // engine, on the functional system's step-0 mapping.
    std::vector<double> gflops;
    std::vector<AzulSystem> refs;
    for (std::size_t c = 0; c < campaigns.size(); ++c) {
        AzulOptions copts =
            BaseOptions(args.tiny, EngineKind::kCycle, 0.0, kFixedIters);
        copts.precomputed_mapping = &step0_mappings[c];
        StatusOr<AzulSystem> ref = [&] {
            ScopedSpan span("core.create", "core");
            return AzulSystem::Create(campaigns[c].base, copts);
        }();
        checker.CheckOk(ref.ok(), campaigns[c].name + ": cycle reference");
        if (!ref.ok()) {
            continue;
        }
        gflops.push_back(ref->Solve(campaigns[c].b0).gflops);
        refs.push_back(*std::move(ref));
    }

    out.attempted = checker.attempted();
    out.failed = checker.failed();
    out.SetE2e("setup_s", setup_s.LeastContended());
    out.SetE2e("throughput", RoundRate(timed.step_ms, kMinKept));
    out.SetE2e("latency_p50_ms",
               GroupedKeptPercentile(timed.step_ms, kMinKept, 50));
    out.SetE2e("latency_p90_ms",
               GroupedKeptPercentile(timed.step_ms, kMinKept, 90));
    out.SetE2e("peak_rss_mb", peak_rss_mb);
    out.SetE2e("iters_per_solve",
               timed.iterations /
                   static_cast<double>(
                       std::max<std::int64_t>(timed.counted, 1)));
    out.SetE2e("sim_gflops", GeoMean(gflops));
    // Also kept in untraced runs, where main prints them as a note.
    out.SetLayer("host.ref_ms", host_ref.MedianMs());
    out.SetLayer("host.ref_drift_pct", host_ref.DriftPct());
    Gauged all_steps;
    for (const Gauged& g : timed.step_ms) {
        all_steps.Append(g);
    }
    out.SetLayer("host.uncontended_frac",
                 static_cast<double>(all_steps.CountKept()) /
                     static_cast<double>(all_steps.values.size()));
    if (!args.trace) {
        return out;
    }

    std::vector<const CsrMatrix*> originals, permuted;
    std::vector<AzulSystem*> cycle;
    std::vector<const Vector*> rhs;
    for (std::size_t c = 0; c < refs.size(); ++c) {
        originals.push_back(&campaigns[c].base);
        permuted.push_back(&refs[c].matrix());
        cycle.push_back(&refs[c]);
        rhs.push_back(&campaigns[c].b0);
    }
    MeasureColorAndIc0(originals, permuted, out);
    MeasureCycleLayers(cycle, rhs, out);

    double reuses = 0.0, repartitions = 0.0, warm = 0.0, cold = 0.0;
    for (const AzulSystem& sys : systems) {
        reuses += static_cast<double>(sys.mapping_reuses());
        repartitions += static_cast<double>(sys.repartitions());
        warm += static_cast<double>(sys.warm_solves());
        cold += static_cast<double>(sys.cold_solves());
        if (sys.repartitions() > 0) {
            partition_s += sys.mapping_seconds(); // the last repartition
        }
    }
    out.SetLayer("solver.warm_frac", warm / std::max(warm + cold, 1.0));
    out.SetLayer("mapping.partition_s", partition_s);
    out.SetLayer("mapping.reuses", reuses);
    out.SetLayer("mapping.repartitions", repartitions);
    out.SetLayer("dataflow.compile_ms", Mean(compile_ms));
    out.SetLayer("sim.functional.ns_per_nnz_iter",
                 Median(timed.steady_ns_per_nnz_iter));
    out.SetLayer("sim.functional.tape_record_ms",
                 Median(timed.tape_record_ms));
    out.SetLayer("core.create_ms", Mean(create_ms));
    out.SetLayer("core.solve_ms", Median(timed.solve_ms));
    out.SetLayer("core.update_values_ms", Median(timed.update_values_ms));
    out.SetLayer("core.update_matrix_ms", Median(timed.update_matrix_ms));
    out.SetLayer("trace.overhead_pct", overhead_pct);
    AddSelfTimeMetrics(out);
    return out;
}

} // namespace azul::perfbench
