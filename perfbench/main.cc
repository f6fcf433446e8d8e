/**
 * @file
 * azul_perfbench: the repository benchmark's binary
 * (perfbench/NOTES.md). Runs one workload and prints, as its last
 * line, one JSON object with `correct`, `attempted`, `failed` and the
 * metrics: every end-to-end metric untraced, every per-layer metric
 * with --trace 1.
 *
 *   azul_perfbench --workload suite_cycle|serve_mixed|timestep_drift
 *                  --seed N --seconds S --trace 0|1
 *                  [--workdir DIR] [--tiny] [--corrupt-check K]
 */
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "util/logging.h"

using namespace azul;
using namespace azul::perfbench;

namespace {

[[noreturn]] void
Usage(const std::string& why)
{
    std::fprintf(stderr,
                 "azul_perfbench: %s\n"
                 "usage: azul_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--tiny] "
                 "[--corrupt-check K]\n",
                 why.c_str());
    std::exit(2);
}

RunArgs
Parse(int argc, char** argv)
{
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc) {
            Usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (flag == "--workdir") {
                args.workdir = value;
            } else if (flag == "--corrupt-check") {
                args.corrupt_check = std::stoll(value);
            } else {
                Usage("unknown flag " + flag);
            }
        } catch (const std::exception&) {
            Usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!(args.seconds > 0.0)) {
        Usage("--seconds must be positive");
    }
    return args;
}

/** JSON number with all its digits (non-finite values become null and
 *  fail the result check downstream). */
std::string
Num(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    const RunArgs args = Parse(argc, argv);
    SetLogLevel(LogLevel::kWarn);
    ::mkdir(args.workdir.c_str(), 0755);
    Tracer::Get().Enable(args.trace);

    RunResult result;
    if (args.workload == "suite_cycle") {
        result = RunSuiteCycle(args);
    } else if (args.workload == "serve_mixed") {
        result = RunServeMixed(args);
    } else if (args.workload == "timestep_drift") {
        result = RunTimestepDrift(args);
    } else {
        Usage("unknown workload '" + args.workload + "'");
    }
    Tracer::Get().Enable(false);

    const auto& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
    const auto& values = args.trace ? result.per_layer : result.end_to_end;
    std::string metrics;
    for (const MetricDef& d : defs) {
        const auto it = values.find(d.name);
        if (it == values.end() && !args.trace) {
            std::fprintf(stderr, "azul_perfbench: %s did not report %s\n",
                         args.workload.c_str(), d.name);
            return 1;
        }
        // Per-layer metrics of a layer this workload bypasses read 0.
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("%-34s %16.6g %s\n", d.name, v, d.unit);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
                   "\": {\"value\": " + Num(v) + ", \"unit\": \"" + d.unit +
                   "\"}";
    }
    if (!args.trace && result.per_layer.count("host.ref_ms") > 0) {
        // Not a metric of this mode: lets a reader tell host drift apart
        // from a code change (NOTES.md, "Steadiness").
        std::printf("host reference loop %.3f ms, drift %+.1f%%; "
                    "%.0f%% of timed samples uncontended\n",
                    result.per_layer.at("host.ref_ms"),
                    result.per_layer.at("host.ref_drift_pct"),
                    result.per_layer.at("host.uncontended_frac") * 100.0);
    }
    if (args.trace) {
        const std::string path = args.workdir + "/trace-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".json";
        if (!Tracer::Get().WriteChromeTrace(path)) {
            std::fprintf(stderr, "azul_perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("chrome trace: %s\n", path.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                result.failed == 0 && result.attempted > 0 ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed), metrics.c_str());
    return 0;
}
