#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include "bench.h"
#include "mapping/azul_mapper.h"
#include "mapping/partitioner.h"
#include "solver/coloring.h"
#include "solver/ic0.h"
#include "sparse/permute.h"

namespace azul::perfbench {

AzulOptions
BaseOptions(bool tiny, EngineKind engine, double tol, Index max_iters)
{
    AzulOptions opts;
    const int grid = tiny ? 4 : 8;
    opts.sim.grid_width = grid;
    opts.sim.grid_height = grid;
    opts.sim.sim_threads = 1;
    opts.azul_mapper.partitioner.threads = 1;
    opts.engine = engine;
    opts.spec.method = SolverKind::kPcg;
    opts.spec.precond = PreconditionerKind::kIncompleteCholesky;
    opts.spec.tol = tol;
    opts.spec.max_iters = max_iters;
    return opts;
}

// ---- Metric tables ---------------------------------------------------------

const std::vector<MetricDef>&
EndToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"throughput", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"peak_rss_mb", "MiB"},
        {"iters_per_solve", "1"},
        {"sim_gflops", "GFLOP/s"},
    };
    return defs;
}

const std::vector<MetricDef>&
PerLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sparse.color_ms", "ms"},
        {"solver.ic0_ms", "ms"},
        {"solver.warm_frac", "1"},
        {"mapping.partition_s", "s"},
        {"mapping.coarsen_s", "s"},
        {"mapping.initial_s", "s"},
        {"mapping.refine_s", "s"},
        {"mapping.fm_s", "s"},
        {"mapping.extract_s", "s"},
        {"mapping.traffic_msgs", "count"},
        {"mapping.tile_imbalance", "1"},
        {"mapping.cache_hits", "count"},
        {"mapping.cache_misses", "count"},
        {"mapping.reuses", "count"},
        {"mapping.repartitions", "count"},
        {"dataflow.compile_ms", "ms"},
        {"sim.cycle.rate_mcyc_s", "Mcycles/s"},
        {"sim.cycle.iter_ms", "ms"},
        {"sim.cycle.prologue_ms", "ms"},
        {"sim.cycles_per_iter", "cycles"},
        {"sim.class_cycles.spmv", "cycles"},
        {"sim.class_cycles.sptrsv_fwd", "cycles"},
        {"sim.class_cycles.sptrsv_bwd", "cycles"},
        {"sim.class_cycles.vector", "cycles"},
        {"sim.fpu_util.spmv", "1"},
        {"sim.fpu_util.sptrsv_fwd", "1"},
        {"sim.fpu_util.sptrsv_bwd", "1"},
        {"sim.fpu_util.vector", "1"},
        {"sim.stall_frac", "1"},
        {"sim.idle_frac", "1"},
        {"sim.link_activations_per_iter", "count"},
        {"sim.messages_per_iter", "count"},
        {"sim.spilled_frac", "1"},
        {"sim.sram_accesses_per_iter", "count"},
        {"sim.functional.ns_per_nnz_iter", "ns"},
        {"sim.functional.tape_record_ms", "ms"},
        {"core.create_ms", "ms"},
        {"core.solve_ms", "ms"},
        {"core.update_values_ms", "ms"},
        {"core.update_matrix_ms", "ms"},
        {"service.open_cold_ms", "ms"},
        {"service.open_hit_ms", "ms"},
        {"service.queue_p50_ms", "ms"},
        {"service.queue_p90_ms", "ms"},
        {"service.exec_p50_ms", "ms"},
        {"service.exec_p90_ms", "ms"},
        {"fleet.submit_us", "us"},
        {"fleet.route_ms", "ms"},
        {"load.gen_lag_p99_ms", "ms"},
        {"load.offered_rps", "1/s"},
        {"load.achieved_rps", "1/s"},
        {"host.ref_ms", "ms"},
        {"host.ref_drift_pct", "%"},
        {"host.uncontended_frac", "1"},
        {"trace.overhead_pct", "%"},
        {"self.sparse_pct", "%"},
        {"self.solver_pct", "%"},
        {"self.mapping_pct", "%"},
        {"self.sim_pct", "%"},
        {"self.core_pct", "%"},
        {"self.fleet_pct", "%"},
        {"self.bench_pct", "%"},
    };
    return defs;
}

namespace {
void
SetChecked(std::map<std::string, double>& into,
           const std::vector<MetricDef>& defs, const std::string& name,
           double value)
{
    const bool known =
        std::any_of(defs.begin(), defs.end(),
                    [&name](const MetricDef& d) { return name == d.name; });
    if (!known) {
        std::fprintf(stderr, "internal error: unknown metric '%s'\n",
                     name.c_str());
        std::abort();
    }
    into[name] = value;
}
} // namespace

void
RunResult::SetE2e(const std::string& name, double value)
{
    SetChecked(end_to_end, EndToEndMetrics(), name, value);
}

void
RunResult::SetLayer(const std::string& name, double value)
{
    SetChecked(per_layer, PerLayerMetrics(), name, value);
}

// ---- Statistics ------------------------------------------------------------

double
GroupedPercentile(const std::vector<std::vector<double>>& groups, double p)
{
    std::vector<double> per_group;
    for (const std::vector<double>& g : groups) {
        if (!g.empty()) {
            per_group.push_back(Percentile(g, p));
        }
    }
    return GeoMean(per_group);
}

Vector
RandomVector(Rng& rng, Index n)
{
    Vector v(static_cast<std::size_t>(n));
    for (double& x : v) {
        x = rng.UniformDouble(-1.0, 1.0);
    }
    return v;
}

double
PeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- Frozen host reference loop --------------------------------------------

namespace {
// Sizes: the compute array stays in L1; the gather source (32 MiB) is
// far beyond any last-level cache, so the gather measures memory.
constexpr std::size_t kComputeLen = 4096;
constexpr int kComputePasses = 4000;
constexpr std::size_t kGatherSrcLen = std::size_t{1} << 22;
constexpr std::size_t kGatherLen = std::size_t{1} << 21;

/** Builds the reference's inputs and returns the median milliseconds of
 *  three timed passes, after one untimed warm-up pass. */
double
ReferenceMedianMs()
{
    std::vector<double> compute(kComputeLen);
    std::vector<double> gather_src(kGatherSrcLen);
    std::vector<std::uint32_t> gather_idx(kGatherLen);
    for (std::size_t i = 0; i < kComputeLen; ++i) {
        compute[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
    }
    for (std::size_t i = 0; i < kGatherSrcLen; ++i) {
        gather_src[i] = static_cast<double>(i & 1023);
    }
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < kGatherLen; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        gather_idx[i] = static_cast<std::uint32_t>(s % kGatherSrcLen);
    }
    std::vector<double> passes_ms;
    for (int pass = 0; pass < 4; ++pass) {
        const auto t0 = Clock::now();
        double acc = 0.0;
        for (int p = 0; p < kComputePasses; ++p) {
            const double a = 1.0 + 1e-9 * p;
            for (std::size_t i = 0; i < kComputeLen; ++i) {
                compute[i] = compute[i] * a + 1e-12;
            }
            acc += compute[static_cast<std::size_t>(p) % kComputeLen];
        }
        double g = 0.0;
        for (const std::uint32_t i : gather_idx) {
            g += gather_src[i];
        }
        if (pass > 0) {
            passes_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
        }
        // Keep both results observable so neither loop is elided.
        if (acc == -1.0 || g == -1.0) {
            std::fprintf(stderr, "host reference: %g %g\n", acc, g);
        }
    }
    return Median(passes_ms);
}
} // namespace

void
HostReference::Sample()
{
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("host reference: pipe");
        std::abort();
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("host reference: fork");
        std::abort();
    }
    if (pid == 0) {
        ::close(fds[0]);
        const double ms = ReferenceMedianMs();
        const bool sent = ::write(fds[1], &ms, sizeof(ms)) == sizeof(ms);
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double ms = 0.0;
    const bool got = ::read(fds[0], &ms, sizeof(ms)) == sizeof(ms);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got) {
        samples_ms_.push_back(ms);
    }
}

double
HostReference::MedianMs() const
{
    return Median(samples_ms_);
}

double
HostReference::DriftPct() const
{
    if (samples_ms_.size() < 2) {
        return 0.0;
    }
    return (samples_ms_.back() - samples_ms_.front()) /
           samples_ms_.front() * 100.0;
}

// ---- Host contention gauge -------------------------------------------------

namespace {
// The probe: kProbePasses sweeps of an FMA over kProbeLen doubles, which
// stay in L1. Compute-bound, so it is the kernel the slow state hurts
// most; about 10 us uncontended.
constexpr std::size_t kProbeLen = 512;
constexpr int kProbePasses = 160;
constexpr auto kProbeEvery = std::chrono::milliseconds(2);
/** Readings kept per CPU: 8 s at one per probe period. */
constexpr std::size_t kRingLen = 4096;
constexpr double kLookbackSeconds = 0.3;
constexpr double kSettleEverySeconds = 0.02;
/** Settle moves only for this much less contended share. */
constexpr double kMinGain = 0.1;

double
ProbeOnceUs()
{
    alignas(64) double a[kProbeLen];
    for (std::size_t i = 0; i < kProbeLen; ++i) {
        a[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
    }
    const auto t0 = Clock::now();
    for (int p = 0; p < kProbePasses; ++p) {
        const double m = 1.0 + 1e-9 * p;
        for (std::size_t i = 0; i < kProbeLen; ++i) {
            a[i] = a[i] * m + 1e-12;
        }
    }
    const double us = Seconds(t0, Clock::now()) * 1e6;
    if (a[kProbeLen / 2] == -1.0) { // keeps the sweep observable
        std::fprintf(stderr, "host gauge: %g\n", a[0]);
    }
    return us;
}

cpu_set_t
OneCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return set;
}
} // namespace

struct HostGauge::Sentinel {
    struct Reading {
        Clock::time_point at;
        double us = 0.0;
    };
    int cpu = 0;
    pid_t tid = 0;
    mutable std::mutex mu;
    std::vector<Reading> ring = std::vector<Reading>(kRingLen);
    std::size_t count = 0; //!< readings so far; the newest is count - 1
    std::thread thread;
};
HostGauge::HostGauge()
    : floor_us_(std::numeric_limits<double>::infinity())
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) {
                sentinels_.push_back(std::make_unique<Sentinel>());
                sentinels_.back()->cpu = cpu;
            }
        }
    }
    for (auto& s : sentinels_) {
        s->thread = std::thread([this, &s = *s] { Run(s); });
    }
    // Runs only when no workload thread can: an idle vCPU halts, and on
    // a busy host waking it again costs milliseconds.
    spinner_ = std::thread([this] {
        const sched_param idle{};
        if (::sched_setscheduler(0, SCHED_IDLE, &idle) != 0) {
            return; // at normal priority it would take the workload's CPU
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    });
    // A few readings per CPU before the first move.
    std::this_thread::sleep_for(10 * kProbeEvery);
    Settle(true);
}

HostGauge::~HostGauge()
{
    stop_.store(true);
    spinner_.join();
    for (auto& s : sentinels_) {
        s->thread.join();
    }
}

void
HostGauge::Run(Sentinel& s)
{
    {
        std::lock_guard<std::mutex> lock(s.mu);
        s.tid = static_cast<pid_t>(::syscall(SYS_gettid));
    }
    const cpu_set_t set = OneCpu(s.cpu);
    ::sched_setaffinity(0, sizeof(set), &set);
    while (!stop_.load()) {
        // The faster of two sweeps: an interrupt slows one, not both.
        const double us = std::min(ProbeOnceUs(), ProbeOnceUs());
        double floor = floor_us_.load();
        while (us < floor && !floor_us_.compare_exchange_weak(floor, us)) {
        }
        {
            std::lock_guard<std::mutex> lock(s.mu);
            s.ring[s.count % kRingLen] = {Clock::now(), us};
            ++s.count;
        }
        std::this_thread::sleep_for(kProbeEvery);
    }
}

double
HostGauge::ShareOn(const Sentinel& s, Clock::time_point from,
                   Clock::time_point to) const
{
    const double limit = kContendedRatio * floor_us_.load();
    std::lock_guard<std::mutex> lock(s.mu);
    std::size_t total = 0, contended = 0;
    for (std::size_t k = s.count; k > 0 && s.count - k < kRingLen; --k) {
        const Sentinel::Reading& r = s.ring[(k - 1) % kRingLen];
        if (r.at < from) {
            break;
        }
        if (r.at <= to) {
            ++total;
            contended += r.us > limit ? 1 : 0;
        }
    }
    return total == 0 ? 1.0
                      : static_cast<double>(contended) /
                            static_cast<double>(total);
}

double
HostGauge::Share(Clock::time_point from, Clock::time_point to) const
{
    return sentinels_.empty()
               ? 0.0
               : ShareOn(*sentinels_[current_.load()], from - kProbeEvery,
                         to);
}

void
HostGauge::Settle(bool force)
{
    const auto now = Clock::now();
    if (sentinels_.empty() ||
        (!force && Seconds(last_settle_, now) < kSettleEverySeconds)) {
        return;
    }
    last_settle_ = now;
    const auto from = now - std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    kLookbackSeconds));
    const std::size_t current = current_.load();
    const double current_share = ShareOn(*sentinels_[current], from, now);
    std::size_t best = current;
    double best_share = current_share;
    for (std::size_t i = 0; i < sentinels_.size(); ++i) {
        const double share = ShareOn(*sentinels_[i], from, now);
        if (share < best_share) {
            best = i;
            best_share = share;
        }
    }
    if (force || (best != current && best_share <= current_share - kMinGain)) {
        MoveTo(best);
    }
}

void
HostGauge::MoveTo(std::size_t index)
{
    current_.store(index);
    const cpu_set_t set = OneCpu(sentinels_[index]->cpu);
    std::vector<pid_t> skip;
    for (const auto& s : sentinels_) {
        std::lock_guard<std::mutex> lock(s->mu);
        skip.push_back(s->tid);
    }
    // Every thread of the process but the sentinels; threads started
    // later inherit their creator's CPU.
    if (DIR* dir = ::opendir("/proc/self/task")) {
        while (const dirent* e = ::readdir(dir)) {
            const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
            if (tid > 0 &&
                std::find(skip.begin(), skip.end(), tid) == skip.end()) {
                // A thread that has just exited fails; nothing to move.
                ::sched_setaffinity(tid, sizeof(set), &set);
            }
        }
        ::closedir(dir);
    }
}

std::size_t
Gauged::CountKept() const
{
    return static_cast<std::size_t>(std::count_if(
        shares.begin(), shares.end(), &HostGauge::Uncontended));
}

std::vector<double>
Gauged::Kept(std::size_t min_kept) const
{
    // Least contended first; time order among equal shares.
    std::vector<std::size_t> order(values.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return shares[a] < shares[b];
                     });
    std::vector<double> out;
    for (const std::size_t i : order) {
        if (!HostGauge::Uncontended(shares[i]) && out.size() >= min_kept) {
            break;
        }
        out.push_back(values[i]);
    }
    return out;
}

double
Gauged::LeastContended() const
{
    if (values.empty()) {
        return 0.0;
    }
    const auto it = std::min_element(shares.begin(), shares.end());
    return values[static_cast<std::size_t>(it - shares.begin())];
}

double
GroupedKeptPercentile(const std::vector<Gauged>& groups, std::size_t min_kept,
                      double p)
{
    std::vector<std::vector<double>> kept;
    for (const Gauged& g : groups) {
        kept.push_back(g.Kept(min_kept));
    }
    return GroupedPercentile(kept, p);
}

double
RoundRate(const std::vector<Gauged>& groups_ms, std::size_t min_kept)
{
    double round_s = 0.0;
    for (const Gauged& g : groups_ms) {
        round_s += Median(g.Kept(min_kept)) * 1e-3;
    }
    return round_s > 0.0 ? static_cast<double>(groups_ms.size()) / round_s
                         : 0.0;
}

std::size_t
FewestKept(const std::vector<Gauged>& groups)
{
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (const Gauged& g : groups) {
        fewest = std::min(fewest, g.CountKept());
    }
    return groups.empty() ? 0 : fewest;
}

// ---- Tracing ---------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> t_open_spans;

std::uint32_t
ThreadTag()
{
    static std::mutex mu;
    static std::map<std::thread::id, std::uint32_t> tags;
    std::lock_guard<std::mutex> lock(mu);
    const auto it = tags.find(std::this_thread::get_id());
    if (it != tags.end()) {
        return it->second;
    }
    const std::uint32_t tag = static_cast<std::uint32_t>(tags.size()) + 1;
    tags.emplace(std::this_thread::get_id(), tag);
    return tag;
}
} // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer&
Tracer::Get()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::Begin(const char* name, const char* layer, std::uint64_t request)
{
    if (!enabled()) {
        return -1;
    }
    Span s;
    s.name = name;
    s.layer = layer;
    s.request = request;
    s.tid = ThreadTag();
    s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    std::int64_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.start_us = Seconds(origin_, Clock::now()) * 1e6;
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(s);
    }
    t_open_spans.push_back(index);
    return index;
}

void
Tracer::End(std::int64_t index)
{
    if (index < 0) {
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_us =
        Seconds(origin_, Clock::now()) * 1e6;
    if (!t_open_spans.empty() && t_open_spans.back() == index) {
        t_open_spans.pop_back();
    }
}

std::vector<std::pair<std::string, double>>
Tracer::SelfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            child_us[static_cast<std::size_t>(s.parent)] +=
                s.end_us - s.start_us;
        }
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        by_layer[s.layer] +=
            std::max(0.0, s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return {by_layer.begin(), by_layer.end()};
}

bool
Tracer::WriteChromeTrace(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u, \"args\": {\"span\": %zu, "
                      "\"parent\": %lld, \"request\": %llu}}%s\n",
                      s.name, s.layer, s.start_us, s.end_us - s.start_us,
                      s.tid, i, static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request),
                      i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
}

namespace {

/** The layers a span can name, in report order. */
const std::vector<std::string>&
TracedLayers()
{
    // The layers the benchmark calls directly; dataflow and service sit
    // beneath core and fleet and have no span of their own yet.
    static const std::vector<std::string> layers = {
        "sparse", "solver", "mapping", "sim", "core", "fleet", "bench"};
    return layers;
}

} // namespace

void
AddSelfTimeMetrics(RunResult& out)
{
    const auto by_layer = Tracer::Get().SelfSecondsByLayer();
    double total = 0.0;
    for (const auto& [layer, s] : by_layer) {
        total += s;
    }
    for (const std::string& layer : TracedLayers()) {
        double s = 0.0;
        for (const auto& [name, v] : by_layer) {
            if (name == layer) {
                s = v;
            }
        }
        out.SetLayer("self." + layer + "_pct",
                     total > 0.0 ? s / total * 100.0 : 0.0);
    }
}

// ---- Answer checking -------------------------------------------------------

namespace {

double
Norm2(const Vector& v)
{
    double s = 0.0;
    for (const double x : v) {
        s += x * x;
    }
    return std::sqrt(s);
}

/** Host ||b - A x||, computed by the benchmark itself (no library
 *  kernel), so it stays an independent oracle. */
double
TrueResidualNorm(const CsrMatrix& a, const Vector& b, const Vector& x)
{
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& va = a.vals();
    double s = 0.0;
    for (Index i = 0; i < a.rows(); ++i) {
        double r = b[static_cast<std::size_t>(i)];
        for (Index k = rp[static_cast<std::size_t>(i)];
             k < rp[static_cast<std::size_t>(i + 1)]; ++k) {
            r -= va[static_cast<std::size_t>(k)] *
                 x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
        }
        s += r * r;
    }
    return std::sqrt(s);
}

} // namespace

void
Checker::Fail(const std::string& why)
{
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void
Checker::MaybeCorrupt(Vector& x)
{
    ++answers_;
    if (answers_ == corrupt_ && !x.empty()) {
        x[x.size() / 2] += 1.0;
    }
}

void
Checker::CheckOk(bool ok, const std::string& what)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
        Fail(what);
    }
}

void
Checker::CheckSolve(const CsrMatrix& a, const Vector& b, Vector x,
                    bool converged, double tol, double factor,
                    const std::string& what)
{
    ScopedSpan span("bench.check", "bench");
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    MaybeCorrupt(x);
    if (!converged) {
        Fail(what + ": did not converge");
        return;
    }
    if (x.size() != b.size()) {
        Fail(what + ": answer has the wrong length");
        return;
    }
    const double rel = TrueResidualNorm(a, b, x) / Norm2(b);
    if (!(rel <= factor * tol)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ": true relative residual %.3e > %.0f * tol %.1e",
                      rel, factor, tol);
        Fail(what + buf);
    }
}

void
Checker::CheckBitIdentical(const CsrMatrix& a, const Vector& b, Vector x,
                           const Vector& x_ref, double reported_residual,
                           double rel_tol, const std::string& what)
{
    ScopedSpan span("bench.check", "bench");
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    MaybeCorrupt(x);
    if (x.size() != x_ref.size() ||
        !std::equal(x.begin(), x.end(), x_ref.begin(),
                    [](double p, double q) {
                        return std::memcmp(&p, &q, sizeof(double)) == 0;
                    })) {
        Fail(what + ": cycle and functional answers differ");
        return;
    }
    const double truth = TrueResidualNorm(a, b, x);
    if (!(std::fabs(truth - reported_residual) <=
          rel_tol * std::max(truth, 1e-300))) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ": reported residual %.6e vs host %.6e",
                      reported_residual, truth);
        Fail(what + buf);
    }
}

// ---- Simulated counters ----------------------------------------------------

Vector
TimedEngineSolve(AzulSystem& sys, const Vector& b,
                 std::vector<double>& prologue_ms,
                 std::vector<double>& iter_ms)
{
    ScopedSpan solve("core.solve", "core");
    ExecutionEngine& engine = sys.engine();
    Vector b_perm;
    {
        ScopedSpan s("sparse.permute", "sparse");
        b_perm = PermuteVector(b, sys.permutation());
    }
    {
        ScopedSpan s("sim.load_problem", "sim");
        engine.LoadProblem(b_perm);
    }
    {
        ScopedSpan s("sim.cycle.prologue", "sim");
        const auto t0 = Clock::now();
        engine.RunPrologue();
        prologue_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    for (Index k = 0; k < sys.options().spec.max_iters; ++k) {
        ScopedSpan s("sim.cycle.iteration", "sim");
        const auto t0 = Clock::now();
        engine.RunIteration();
        iter_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    Vector x;
    {
        ScopedSpan s("sim.gather", "sim");
        x = engine.GatherVector(sys.program().solution);
    }
    ScopedSpan s("sparse.unpermute", "sparse");
    return UnpermuteVector(x, sys.permutation());
}

void
MeasureCycleLayers(const std::vector<AzulSystem*>& systems,
                   const std::vector<const Vector*>& rhs, RunResult& out)
{
    static const char* kClass[kNumKernelClasses] = {"spmv", "sptrsv_fwd",
                                                    "sptrsv_bwd", "vector"};
    const auto fp_ops = [](const OpCounts& o) {
        return static_cast<double>(o.fmac + o.add + o.mul);
    };
    std::map<std::string, std::vector<double>> per_matrix;
    std::vector<double> prologue_ms, iter_ms;
    double walk_cycles = 0.0, walk_s = 0.0, traffic = 0.0;
    PartitionPhaseStats phases;
    for (std::size_t m = 0; m < systems.size(); ++m) {
        AzulSystem& sys = *systems[m];
        const Vector& b = *rhs[m];
        const double tiles =
            static_cast<double>(sys.options().sim.num_tiles());

        // Exact counters of one solve, per iteration (prologue included).
        KernelMetricsObserver kernels;
        sys.engine().AttachObserver(&kernels);
        const SolveReport rep = sys.Solve(b);
        sys.engine().DetachObserver(&kernels);
        const SimStats& st = rep.run.stats;
        const double iters =
            static_cast<double>(std::max<Index>(rep.run.iterations, 1));
        const double cycles = static_cast<double>(st.cycles);
        const auto add = [&per_matrix](const std::string& name, double v) {
            per_matrix[name].push_back(v);
        };
        add("sim.cycles_per_iter", cycles / iters);
        for (std::size_t k = 0; k < kNumKernelClasses; ++k) {
            add(std::string("sim.class_cycles.") + kClass[k],
                static_cast<double>(st.class_cycles[k]) / iters);
        }
        add("sim.stall_frac",
            static_cast<double>(st.stall_cycles) / (cycles * tiles));
        add("sim.idle_frac",
            static_cast<double>(st.idle_cycles) / (cycles * tiles));
        add("sim.link_activations_per_iter",
            static_cast<double>(st.link_activations) / iters);
        add("sim.messages_per_iter", static_cast<double>(st.messages) / iters);
        add("sim.spilled_frac",
            st.messages > 0 ? static_cast<double>(st.spilled_messages) /
                                  static_cast<double>(st.messages)
                            : 0.0);
        add("sim.sram_accesses_per_iter",
            static_cast<double>(st.sram_reads + st.sram_writes) / iters);
        add("mapping.tile_imbalance", st.TileImbalance());

        // FPU utilization: FP issue slots used over tile-cycles. Matrix
        // kernels from one standalone run each, vector ops from the
        // solve's per-class observer row.
        const auto& mk = sys.program().matrix_kernels;
        double ops[kNumKernelClasses] = {0, 0, 0, 0};
        double cyc[kNumKernelClasses] = {0, 0, 0, 0};
        for (std::size_t i = 0; i < mk.size(); ++i) {
            ScopedSpan s("core.run_kernel_once", "core");
            const SimStats ks = sys.RunKernelOnce(static_cast<int>(i), b);
            const std::size_t c = static_cast<std::size_t>(mk[i].kclass);
            ops[c] += fp_ops(ks.ops);
            cyc[c] += static_cast<double>(ks.cycles);
        }
        const auto& vec = kernels.row(KernelClass::kVectorOp);
        const std::size_t v = static_cast<std::size_t>(KernelClass::kVectorOp);
        ops[v] = fp_ops(vec.ops);
        cyc[v] = static_cast<double>(vec.cycles);
        for (std::size_t k = 0; k < kNumKernelClasses; ++k) {
            add(std::string("sim.fpu_util.") + kClass[k],
                cyc[k] > 0.0 ? ops[k] / (cyc[k] * tiles) : 0.0);
        }

        // Host time of the cycle engine, call by call.
        const auto t0 = Clock::now();
        (void)TimedEngineSolve(sys, b, prologue_ms, iter_ms);
        walk_s += Seconds(t0, Clock::now());
        walk_cycles += static_cast<double>(sys.engine().stats().cycles);

        // Out-of-band mapping calls on the system's own problem.
        MappingProblem prob;
        prob.a = &sys.matrix();
        prob.l = sys.factor();
        AzulMapperOptions mopts = sys.options().azul_mapper;
        mopts.grid_width = sys.options().sim.grid_width;
        mopts.grid_height = sys.options().sim.grid_height;
        {
            ScopedSpan s("mapping.partition_hypergraph", "mapping");
            const Hypergraph hg = AzulMapper(mopts).BuildHypergraph(prob);
            (void)PartitionHypergraph(hg, sys.options().sim.num_tiles(),
                                      mopts.partitioner, &phases);
        }
        ScopedSpan s("mapping.estimate_traffic", "mapping");
        traffic += EstimateTraffic(prob, sys.mapping()).total();
    }
    for (const auto& [name, values] : per_matrix) {
        out.SetLayer(name, Mean(values));
    }
    out.SetLayer("sim.cycle.prologue_ms", Median(prologue_ms));
    out.SetLayer("sim.cycle.iter_ms", Median(iter_ms));
    out.SetLayer("sim.cycle.rate_mcyc_s",
                 walk_s > 0.0 ? walk_cycles / walk_s / 1e6 : 0.0);
    out.SetLayer("mapping.coarsen_s", phases.coarsen.seconds());
    out.SetLayer("mapping.initial_s", phases.initial.seconds());
    out.SetLayer("mapping.refine_s", phases.refine.seconds());
    out.SetLayer("mapping.fm_s", phases.fm_refine.seconds());
    out.SetLayer("mapping.extract_s", phases.extract.seconds());
    out.SetLayer("mapping.traffic_msgs", traffic);
}

void
MeasureColorAndIc0(const std::vector<const CsrMatrix*>& originals,
                   const std::vector<const CsrMatrix*>& permuted,
                   RunResult& out)
{
    std::vector<double> color_ms, ic0_ms;
    for (const CsrMatrix* a : originals) {
        ScopedSpan s("sparse.color_and_permute", "sparse");
        const auto t0 = Clock::now();
        (void)ColorAndPermute(*a);
        color_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    for (const CsrMatrix* a : permuted) {
        ScopedSpan s("solver.incomplete_cholesky", "solver");
        const auto t0 = Clock::now();
        (void)IncompleteCholesky(*a);
        ic0_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    out.SetLayer("sparse.color_ms", Mean(color_ms));
    out.SetLayer("solver.ic0_ms", Mean(ic0_ms));
}

} // namespace azul::perfbench
