#include "sim/config.h"

#include <cstdlib>
#include <sstream>

namespace azul {

std::string
EngineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::kCycle: return "cycle";
      case EngineKind::kFunctional: return "functional";
    }
    return "unknown";
}

bool
ParseEngineKind(const std::string& text, EngineKind& out)
{
    if (text == "cycle") {
        out = EngineKind::kCycle;
        return true;
    }
    if (text == "functional") {
        out = EngineKind::kFunctional;
        return true;
    }
    return false;
}

std::string
PrecisionModeName(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::kFp64: return "fp64";
      case PrecisionMode::kFp32: return "fp32";
    }
    return "unknown";
}

bool
ParsePrecisionMode(const std::string& text, PrecisionMode& out)
{
    if (text == "fp64") {
        out = PrecisionMode::kFp64;
        return true;
    }
    if (text == "fp32") {
        out = PrecisionMode::kFp32;
        return true;
    }
    return false;
}

double
SimConfig::PeakGflops() const
{
    return static_cast<double>(num_tiles()) * clock_ghz * 2.0;
}

double
SimConfig::TotalSramBytes() const
{
    return static_cast<double>(num_tiles()) *
           (data_sram_kb + accum_sram_kb) * 1024.0;
}

std::string
SimConfig::ToString() const
{
    std::ostringstream oss;
    oss << grid_width << "x" << grid_height << " tiles @ " << clock_ghz
        << " GHz, " << data_sram_kb << "+" << accum_sram_kb
        << " KB/tile, ";
    switch (pe_model) {
      case PeModel::kAzul: oss << "azul-pe"; break;
      case PeModel::kScalarCore: oss << "scalar-core"; break;
      case PeModel::kIdeal: oss << "ideal-pe"; break;
    }
    oss << (multithreading ? " MT" : " ST") << ", hop=" << hop_latency
        << "cy, sram=" << sram_latency << "cy"
        << (torus ? "" : ", mesh");
    if (sim_threads > 1) {
        oss << ", host-threads=" << sim_threads;
    }
    if (precision == PrecisionMode::kFp32) {
        oss << ", fp32-iterates";
    }
    if (faults_enabled()) {
        oss << ", fault-rate=" << fault_rate;
    }
    if (checkpoint_interval > 0) {
        oss << ", ckpt-every=" << checkpoint_interval;
    }
    return oss.str();
}

SimConfig
AzulPaperConfig()
{
    SimConfig cfg;
    cfg.grid_width = 64;
    cfg.grid_height = 64;
    return cfg;
}

SimConfig
AzulDefaultConfig()
{
    return SimConfig{};
}

SimConfig
DalorexConfig(const SimConfig& base)
{
    SimConfig cfg = base;
    cfg.pe_model = PeModel::kScalarCore;
    cfg.multithreading = false;
    cfg.num_contexts = 1;
    return cfg;
}

SimConfig
IdealPeConfig(const SimConfig& base)
{
    SimConfig cfg = base;
    cfg.pe_model = PeModel::kIdeal;
    return cfg;
}

namespace {

/** Parses the '|'-joined kind list of a fault spec; returns false on
 *  an unknown kind name. */
bool
ParseFaultKinds(const std::string& value, std::uint32_t& kinds)
{
    kinds = 0;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t bar = value.find('|', pos);
        const std::string kind = value.substr(
            pos, bar == std::string::npos ? std::string::npos
                                          : bar - pos);
        if (kind == "sram") {
            kinds |= kFaultSram;
        } else if (kind == "nocdrop") {
            kinds |= kFaultNocDrop;
        } else if (kind == "noccorrupt") {
            kinds |= kFaultNocCorrupt;
        } else if (kind == "noc") {
            kinds |= kFaultNocDrop | kFaultNocCorrupt;
        } else if (kind == "pe") {
            kinds |= kFaultPeStall;
        } else if (kind == "all") {
            kinds |= kFaultAll;
        } else {
            return false;
        }
        if (bar == std::string::npos) {
            break;
        }
        pos = bar + 1;
    }
    return kinds != 0;
}

bool
ParsePositiveLong(const std::string& value, long& out)
{
    try {
        std::size_t used = 0;
        out = std::stol(value, &used);
        return used == value.size() && out >= 0;
    } catch (const std::exception&) {
        return false;
    }
}

} // namespace

bool
ParseFaultSpec(const std::string& spec, SimConfig& cfg)
{
    SimConfig parsed = cfg;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        long n = 0;
        if (key == "rate") {
            try {
                std::size_t used = 0;
                parsed.fault_rate = std::stod(value, &used);
                if (used != value.size() || parsed.fault_rate < 0.0 ||
                    parsed.fault_rate > 1.0) {
                    return false;
                }
            } catch (const std::exception&) {
                return false;
            }
        } else if (key == "kinds") {
            if (!ParseFaultKinds(value, parsed.fault_kinds)) {
                return false;
            }
        } else if (key == "seed") {
            if (!ParsePositiveLong(value, n)) {
                return false;
            }
            parsed.fault_seed = static_cast<std::uint64_t>(n);
        } else if (key == "interval") {
            if (!ParsePositiveLong(value, n)) {
                return false;
            }
            parsed.checkpoint_interval = static_cast<Index>(n);
        } else if (key == "dir") {
            parsed.checkpoint_dir = value;
        } else if (key == "stall") {
            if (!ParsePositiveLong(value, n) || n < 1) {
                return false;
            }
            parsed.fault_stall_cycles = static_cast<std::int32_t>(n);
        } else if (key == "retransmit") {
            if (!ParsePositiveLong(value, n)) {
                return false;
            }
            parsed.fault_retransmit_cycles =
                static_cast<std::int32_t>(n);
        } else if (key == "recoveries") {
            if (!ParsePositiveLong(value, n)) {
                return false;
            }
            parsed.max_recoveries = static_cast<std::int32_t>(n);
        } else {
            return false;
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    cfg = parsed;
    return true;
}

void
ApplyFaultEnv(SimConfig& cfg)
{
    const char* env = std::getenv("AZUL_FAULTS");
    if (env == nullptr || *env == '\0') {
        return;
    }
    ParseFaultSpec(env, cfg);
}

std::int32_t
SimThreadsFromEnv(std::int32_t fallback)
{
    const char* env = std::getenv("AZUL_SIM_THREADS");
    if (env == nullptr || *env == '\0') {
        return fallback;
    }
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > 1024) {
        return fallback;
    }
    return static_cast<std::int32_t>(v);
}

} // namespace azul
