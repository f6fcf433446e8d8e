/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/NOTES.md):
 * run arguments, the metric record every workload fills, the
 * outside-in span tracer, the answer checker, and small statistics
 * helpers. Each workload lives in its own file and exposes one
 * Run<Workload>(const RunArgs&) entry point.
 */
#ifndef AZUL_PERFBENCH_BENCH_H_
#define AZUL_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/azul_system.h"
#include "sim/observer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace azul::perfbench {

/** Command-line arguments shared by every workload. */
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (mapping caches, traces). */
    std::string workdir = ".bench_build/work";
    /** Small inputs for the benchmark's own tests. */
    bool tiny = false;
    /** 1-based index of the checked answer the checker corrupts before
     *  checking it (0 = none): proves a wrong answer is counted. */
    std::int64_t corrupt_check = 0;
};

/** Iterations of every fixed-length cycle-engine solve (tol 0), the
 *  count the Fig 20-22 benches use. */
constexpr Index kFixedIters = 3;

/**
 * The options every system of the benchmark starts from: the 8x8 grid
 * (4x4 with --tiny), PCG + IC(0), and one host thread each for the
 * simulation engine and the partitioner (NOTES.md, "Steadiness").
 */
AzulOptions BaseOptions(bool tiny, EngineKind engine, double tol,
                        Index max_iters);

/** A metric's name and unit, as BENCHMARK.json lists it. */
struct MetricDef {
    const char* name;
    const char* unit;
};

/** Every end-to-end metric; each workload reports all of them. */
const std::vector<MetricDef>& EndToEndMetrics();
/** Every per-layer metric; a layer a workload bypasses reads 0. */
const std::vector<MetricDef>& PerLayerMetrics();

/** What a workload run reports. */
struct RunResult {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, double> end_to_end; //!< untraced runs
    std::map<std::string, double> per_layer;  //!< traced runs

    /** Records a metric; aborts on a name missing from the tables
     *  above, so a typo cannot silently drop a number. */
    void SetE2e(const std::string& name, double value);
    void SetLayer(const std::string& name, double value);
};

// ---- Time and statistics ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
Seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** util/stats.h Percentile, reading 0 for an empty sample, as the
 *  figure of a layer the workload bypasses must. */
inline double Pct(const std::vector<double>& v, double p)
{
    return v.empty() ? 0.0 : Percentile(v, p);
}
inline double Median(const std::vector<double>& v) { return Pct(v, 50.0); }

/**
 * Geometric mean over groups (matrices, campaigns) of each group's
 * p-th percentile. A percentile of samples pooled over groups of
 * different cost lands on the boundary between two groups, where it
 * averages the slowest sample of one and the fastest of another.
 */
double GroupedPercentile(const std::vector<std::vector<double>>& groups,
                         double p);

/** n values uniform in [-1, 1) from `rng`: right-hand sides. */
Vector RandomVector(Rng& rng, Index n);

/** Process peak resident set size in MiB. */
double PeakRssMb();

// ---- Frozen host reference loop --------------------------------------------

/**
 * A fixed compute kernel and a fixed random gather, never changed with
 * the library: timing them before and after each timed phase tells
 * machine drift apart from a code change (NOTES.md, "Steadiness").
 */
class HostReference {
  public:
    /**
     * Times both kernels (median of three passes) and records it. The
     * kernels run in a forked child that is waited for, so their 40 MiB
     * never count toward this process's peak_rss_mb.
     */
    void Sample();
    /** Median milliseconds of one compute + one gather pass. */
    double MedianMs() const;
    /** (last - first) / first of the recorded samples, in percent. */
    double DriftPct() const;

  private:
    std::vector<double> samples_ms_;
};

// ---- Host contention gauge -------------------------------------------------

/**
 * Keeps the workload on an uncontended vCPU and tells which timed samples
 * ran on one (NOTES.md, "Steadiness"). On a shared host each vCPU flips,
 * every 20-50 ms, between full speed and a state in which compute runs
 * 1.5-2x slower (other work on the same physical core), and how much of
 * a run is slow swings from run to run. So:
 *  - one sentinel thread per CPU sleeps 2 ms, times a frozen probe (an
 *    FMA sweep over 4 KiB, never changed with the library) and records
 *    the reading; a reading over kContendedRatio times the fastest one
 *    seen on any CPU is contended;
 *  - the workload's threads all run on one CPU, so that CPU's readings
 *    describe every one of them;
 *  - Settle(), called between timed samples, moves them to the CPU with
 *    the fewest contended readings of the last 0.3 s;
 *  - a timed sample carries the contended share of its CPU's readings
 *    while it ran, and is kept if that share is at most
 *    kMaxContendedShare.
 * The sentinels sleep 99% of the time. A spinner at idle priority takes
 * the workload's CPU whenever its threads all wait, so the vCPU never
 * halts: waking a halted vCPU on a busy host costs milliseconds, which
 * would land in serve_mixed's latencies. Without the right to pin,
 * nothing moves and only the judging applies.
 */
class HostGauge {
  public:
    static constexpr double kContendedRatio = 1.4;
    static constexpr double kMaxContendedShare = 0.25;

    /** Starts the sentinels and moves the calling thread, and every
     *  thread it starts later, to the least contended CPU. */
    HostGauge();
    /** Stops and joins the sentinels and the spinner. */
    ~HostGauge();
    HostGauge(const HostGauge&) = delete;
    HostGauge& operator=(const HostGauge&) = delete;

    /** Moves every workload thread to the least contended CPU when it
     *  beats the current one clearly (at most every 20 ms, unless
     *  `force`). */
    void Settle(bool force = false);
    /** Contended share of the current CPU's readings from one probe
     *  period before `from` to `to` (1 when there is none). */
    double Share(Clock::time_point from, Clock::time_point to) const;
    /** Whether a sample with contended share `share` is kept. */
    static bool Uncontended(double share)
    {
        return share <= kMaxContendedShare;
    }

  private:
    struct Sentinel;
    void Run(Sentinel& s);
    double ShareOn(const Sentinel& s, Clock::time_point from,
                   Clock::time_point to) const;
    void MoveTo(std::size_t index);

    std::vector<std::unique_ptr<Sentinel>> sentinels_;
    /** Keeps the workload's CPU from halting while its threads wait. */
    std::thread spinner_;
    /** The fastest reading on any CPU so far, microseconds. */
    std::atomic<double> floor_us_;
    std::atomic<bool> stop_{false};
    /** Index of the sentinel on the workload's CPU; read by collector
     *  threads while Settle moves it. */
    std::atomic<std::size_t> current_{0};
    Clock::time_point last_settle_;
};

/**
 * Timed samples, each with its contended share (HostGauge). The kept
 * samples are the uncontended ones or, when fewer than `min_kept` are,
 * the `min_kept` least contended ones, least contended first (time
 * order among equal shares): two lists with the same shares keep the
 * same samples in the same order.
 */
struct Gauged {
    std::vector<double> values;
    std::vector<double> shares;

    void Add(double value, double share)
    {
        values.push_back(value);
        shares.push_back(share);
    }
    void Append(const Gauged& o)
    {
        values.insert(values.end(), o.values.begin(), o.values.end());
        shares.insert(shares.end(), o.shares.begin(), o.shares.end());
    }
    std::size_t CountKept() const;
    std::vector<double> Kept(std::size_t min_kept) const;
    /** The value of the sample with the smallest contended share. */
    double LeastContended() const;
};

/** GroupedPercentile over each group's kept samples. */
double GroupedKeptPercentile(const std::vector<Gauged>& groups,
                             std::size_t min_kept, double p);

/**
 * Operations per second over one round that runs each group (matrix,
 * campaign) once at the median of its kept times, in milliseconds. A
 * round with one contended operation still counts for its other groups.
 */
double RoundRate(const std::vector<Gauged>& groups_ms, std::size_t min_kept);

/** The fewest kept samples of any group. */
std::size_t FewestKept(const std::vector<Gauged>& groups);

// ---- Tracing ---------------------------------------------------------------

/**
 * Outside-in span recorder. Spans wrap the calls the benchmark makes
 * into one library layer; they are kept in memory and written as
 * Chrome-trace JSON at the end of the run. When disabled, Begin/End
 * cost one branch.
 */
class Tracer {
  public:
    struct Span {
        const char* name = "";
        const char* layer = "";
        double start_us = 0.0;
        double end_us = 0.0;
        std::int64_t parent = -1;
        std::uint64_t request = 0;
        std::uint32_t tid = 0;
    };

    static Tracer& Get();

    void Enable(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    /** Opens a span on the calling thread; returns its index (-1 when
     *  disabled). The innermost open span of the thread is its parent. */
    std::int64_t Begin(const char* name, const char* layer,
                       std::uint64_t request);
    void End(std::int64_t index);

    /** Self time (span minus covered child time) per layer, seconds. */
    std::vector<std::pair<std::string, double>> SelfSecondsByLayer() const;

    /** Writes {"traceEvents": [...]} with one complete event per span. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    Tracer();
    std::atomic<bool> enabled_{false};
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span guard around one call into a layer. */
class ScopedSpan {
  public:
    ScopedSpan(const char* name, const char* layer,
               std::uint64_t request = 0)
        : index_(Tracer::Get().Begin(name, layer, request))
    {
    }
    ~ScopedSpan() { Tracer::Get().End(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    std::int64_t index_;
};

/**
 * The traced run's timed phase: alternates untraced and traced slices
 * of `slice_s` seconds for `seconds` in total, so both modes see the
 * same mix of work and the same host drift. `run(slice_s)` runs one
 * slice and returns its tally; tallies add with +=. Returns the
 * {untraced, traced} sums; their throughput ratio is the tracing
 * overhead. Leaves tracing on.
 */
template <typename Tally, typename RunSlice>
std::pair<Tally, Tally>
AlternateTracing(double seconds, double slice_s, RunSlice run)
{
    Tally plain{}, traced{};
    const auto start = Clock::now();
    for (int k = 0; k < 2 || Seconds(start, Clock::now()) < seconds; ++k) {
        Tracer::Get().Enable(k % 2 == 1);
        (k % 2 == 1 ? traced : plain) += run(slice_s);
    }
    Tracer::Get().Enable(true);
    return {std::move(plain), std::move(traced)};
}

/** Adds the self-time share of every traced layer, in percent. */
void AddSelfTimeMetrics(RunResult& out);

// ---- Answer checking -------------------------------------------------------

/**
 * Counts checked operations and failures. Each Check* call is one
 * attempted operation; a failure prints a reason to stderr. The
 * corrupt_check hook perturbs one answer before it is checked.
 */
class Checker {
  public:
    explicit Checker(std::int64_t corrupt_index) : corrupt_(corrupt_index)
    {
    }

    /** A non-answer operation (open, update, admission): fails when
     *  `ok` is false. */
    void CheckOk(bool ok, const std::string& what);

    /**
     * A converged solve: `converged` must hold and the host true
     * residual ||b - A x|| must be within `factor` * tol * ||b||,
     * with A the values the request saw.
     */
    void CheckSolve(const CsrMatrix& a, const Vector& b, Vector x,
                    bool converged, double tol, double factor,
                    const std::string& what);

    /**
     * A fixed-iteration solve cross-checked against a second engine:
     * x must be bit-identical to `x_ref` and `reported_residual` must
     * agree with the host ||b - A x|| to `rel_tol`.
     */
    void CheckBitIdentical(const CsrMatrix& a, const Vector& b, Vector x,
                           const Vector& x_ref, double reported_residual,
                           double rel_tol, const std::string& what);

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }

  private:
    /** Applies the corruption hook to the next checked answer. */
    void MaybeCorrupt(Vector& x);
    void Fail(const std::string& why);

    std::int64_t corrupt_ = 0;
    std::int64_t answers_ = 0;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::mutex mu_;
};


/**
 * One solve through the public engine surface, each call in its own
 * span: LoadProblem, RunPrologue, max_iters x RunIteration, gather.
 * The same engine work as AzulSystem::Solve at tol 0; appends the
 * prologue and per-iteration host times.
 */
Vector TimedEngineSolve(AzulSystem& sys, const Vector& b,
                        std::vector<double>& prologue_ms,
                        std::vector<double>& iter_ms);

/**
 * Per-layer measurements on built cycle-engine systems (tol 0, fixed
 * iterations), one per matrix the workload uses, each with its
 * right-hand side:
 *  - a solve with a KernelMetricsObserver plus one RunKernelOnce per
 *    matrix kernel: the exact sim.* counters, FPU utilization per
 *    kernel class, and mapping.tile_imbalance (mean over matrices);
 *  - a TimedEngineSolve: sim.cycle.{prologue,iter}_ms (medians) and
 *    sim.cycle.rate_mcyc_s;
 *  - one out-of-band PartitionHypergraph per matrix:
 *    mapping.{coarsen,initial,refine,fm,extract}_s (sums);
 *  - EstimateTraffic of each mapping: mapping.traffic_msgs (sum).
 * Leaves the machines' vectors reset.
 */
void MeasureCycleLayers(const std::vector<AzulSystem*>& systems,
                        const std::vector<const Vector*>& rhs,
                        RunResult& out);

/**
 * Out-of-band calls into the sparse and solver layers: one
 * ColorAndPermute of each original matrix and one IncompleteCholesky
 * of each system's permuted matrix. Sets sparse.color_ms and
 * solver.ic0_ms (mean per call).
 */
void MeasureColorAndIc0(const std::vector<const CsrMatrix*>& originals,
                        const std::vector<const CsrMatrix*>& permuted,
                        RunResult& out);

// ---- Workloads -------------------------------------------------------------

RunResult RunSuiteCycle(const RunArgs& args);
RunResult RunServeMixed(const RunArgs& args);
RunResult RunTimestepDrift(const RunArgs& args);

} // namespace azul::perfbench

#endif // AZUL_PERFBENCH_BENCH_H_
