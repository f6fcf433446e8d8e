/**
 * @file
 * Simulated machine configuration (Table III of the paper, scaled).
 *
 * The paper's default is a 64x64 grid of 2 GHz tiles, each with a
 * (72+36) KB scratchpad pair, a 7-stage PE pipeline, a 2-cycle SRAM
 * access, a 1 FMAC/cycle FP64 unit, and a 96-bit-link 2-D torus at
 * 1 cycle/hop. This repo's default scales the grid to 16x16 so that
 * cycle-level simulation of the benchmark suite runs on a laptop;
 * all parameters remain sweepable (Figs 25-27) and the paper's grid
 * is available via AzulPaperConfig().
 */
#ifndef AZUL_SIM_CONFIG_H_
#define AZUL_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "dataflow/tree.h"
#include "util/common.h"

namespace azul {

// Fault-kind bitmask for SimConfig::fault_kinds (bit i enables
// FaultKind i; see sim/fault.h and docs/ROBUSTNESS.md).
inline constexpr std::uint32_t kFaultSram = 1u << 0;
inline constexpr std::uint32_t kFaultNocDrop = 1u << 1;
inline constexpr std::uint32_t kFaultNocCorrupt = 1u << 2;
inline constexpr std::uint32_t kFaultPeStall = 1u << 3;
inline constexpr std::uint32_t kFaultAll =
    kFaultSram | kFaultNocDrop | kFaultNocCorrupt | kFaultPeStall;

/**
 * Execution engines behind the ExecutionEngine interface
 * (sim/execution_engine.h). Both run the same compiled SolverProgram
 * + mapping and produce bit-identical FP64 solutions and residual
 * histories; they differ only in what they model (docs/SIMULATOR.md,
 * "Choosing an execution engine").
 */
enum class EngineKind : std::uint8_t {
    kCycle,      //!< cycle-accurate Machine: NoC/PE/SRAM timing;
                 //!< ground truth for every paper figure
    kFunctional, //!< ordered task-graph walk, no timing model;
                 //!< serving-oriented fast path (AzulService)
};

/** Returns "cycle" or "functional". */
std::string EngineKindName(EngineKind kind);

/**
 * Parses "cycle" or "functional" into `out`. Returns false (leaving
 * `out` untouched) for anything else.
 */
bool ParseEngineKind(const std::string& text, EngineKind& out);

/**
 * Working precision of the iterate storage (the iterative-refinement
 * idiom, docs/SOLVERS.md). Under kFp32 every working vector — and
 * GMRES's Krylov bank — is quantized to FP32 at the end of each
 * *iteration* phase; the solution x and the right-hand side b are
 * never quantized, and the prologue / warm-prologue /
 * `residual_recompute` phases run at full FP64, so the recompute
 * recovers a true FP64 residual from the FP64 anchors. Arithmetic
 * (dot folds, FMAC accumulation, scalar registers) stays FP64 in
 * either mode, and kFp64 is bit-identical to the historical behavior.
 * Both engines quantize at the same phase boundaries, preserving the
 * cross-engine bit-identity contract at either precision.
 */
enum class PrecisionMode : std::uint8_t {
    kFp64, //!< full FP64 iterate storage (default)
    kFp32, //!< FP32 working vectors, FP64 recovery
};

/** Returns "fp64" or "fp32". */
std::string PrecisionModeName(PrecisionMode mode);

/**
 * Parses "fp64" or "fp32" into `out`. Returns false (leaving `out`
 * untouched) for anything else.
 */
bool ParsePrecisionMode(const std::string& text, PrecisionMode& out);

/** PE timing models. */
enum class PeModel : std::uint8_t {
    kAzul,       //!< specialized pipeline, 1 op/cycle (Sec V-A)
    kScalarCore, //!< Dalorex-style in-order core with bookkeeping
                 //!< instructions consuming extra issue slots
    kIdeal,      //!< infinite issue width, zero latency (Fig 10/11)
};

/** Machine configuration. */
struct SimConfig {
    std::int32_t grid_width = 16;
    std::int32_t grid_height = 16;
    double clock_ghz = 2.0;

    // Tile memory (Table III).
    double data_sram_kb = 72.0;
    double accum_sram_kb = 36.0;
    std::int32_t sram_latency = 2; //!< cycles per scratchpad access

    // PE pipeline.
    PeModel pe_model = PeModel::kAzul;
    /** Cycles until an FMAC result may be reused (accumulator-read +
     *  FP stages of the 7-stage pipeline). */
    std::int32_t fmac_latency = 4;
    bool multithreading = true;
    std::int32_t num_contexts = 8;
    /** kScalarCore: total issue slots consumed per arithmetic op
     *  (1 useful + bookkeeping: address calc, loads, branches). */
    std::int32_t scalar_issue_slots = 8;

    // Network.
    std::int32_t hop_latency = 1; //!< cycles per hop (Fig 25 sweep)
    /** Torus (paper, Sec V-B) vs plain mesh (ablation; Cerebras-like
     *  machines lack wraparound). */
    bool torus = true;

    // Message buffer (register-based; overflow spills to Data SRAM).
    std::int32_t msg_buffer_entries = 64;
    std::int32_t spill_penalty = 2; //!< extra cycles per spilled msg

    /**
     * Working precision of the iterate storage (see PrecisionMode).
     * Under kFp32 the iteration's vector-op sweeps stream two packed
     * values per SRAM word (halving their issue cycles; the
     * full-precision prologue/recompute sweeps are charged full
     * width) and working vectors occupy narrower scratchpad words
     * (sim/sram.cc); arithmetic and the matrix values stay FP64.
     */
    PrecisionMode precision = PrecisionMode::kFp64;

    /** Packed iterate values per SRAM word at the working
     *  precision. */
    std::int32_t
    values_per_word() const
    {
        return precision == PrecisionMode::kFp32 ? 2 : 1;
    }

    /** Watchdog: abort a phase after this many cycles. */
    Cycle max_phase_cycles = 1'000'000'000ULL;

    // Fault injection (off by default; docs/ROBUSTNESS.md). All
    // decisions are seeded and order-independent, so injected runs
    // stay bit-identical at any host thread count.
    /**
     * Per-opportunity fault probability. An opportunity is one SRAM
     * word per tile per phase, one NoC flit per injection (corrupt)
     * or per hop (drop), or one active tile-cycle (PE stall). 0
     * disables injection entirely — the engine then takes the exact
     * pre-robustness-layer code paths, bit for bit.
     */
    double fault_rate = 0.0;
    /** Bitmask of enabled FaultKinds (kFaultSram | ...). */
    std::uint32_t fault_kinds = kFaultAll;
    std::uint64_t fault_seed = 0xfa17'5eedULL;
    /** Cycles a transient PE stall blocks issue for. */
    std::int32_t fault_stall_cycles = 16;
    /** Link-level retransmission delay after a dropped (CRC-failed)
     *  flit, before the flit re-arbitrates for the same link. */
    std::int32_t fault_retransmit_cycles = 8;
    /** Residual spike over the best norm so far that the driver
     *  treats as detected corruption (active only while fault
     *  injection is on; legitimate solvers oscillate far less). */
    double fault_spike_factor = 1e6;
    /** Residual blow-up over the initial norm classified as
     *  divergence (active only while fault injection is on). */
    double divergence_factor = 1e8;

    // Checkpoint/replay (sim/fault.h). Captures are host-side state
    // snapshots and cost no simulated cycles, so enabling them does
    // not perturb the simulation — recovery's cost is the replayed
    // iterations themselves.
    /** Capture a MachineCheckpoint every N driver iterations
     *  (0 = off). */
    Index checkpoint_interval = 0;
    /** When non-empty, each capture also persists to
     *  CheckpointPath(checkpoint_dir) via a tmp+rename store. */
    std::string checkpoint_dir;
    /** Maximum rollbacks per solve before the driver gives up and
     *  reports the failure instead. */
    std::int32_t max_recoveries = 8;

    /** True when the fault injector should be instantiated. */
    bool
    faults_enabled() const
    {
        return fault_rate > 0.0 && fault_kinds != 0;
    }

    // Host-side execution (not part of the modeled hardware).
    /**
     * Host worker threads sharding tiles inside the simulation
     * engine; <= 1 runs serial. The parallel engine is bit-identical
     * to the serial one at every thread count — cycle counts, FP64
     * results, stats, and observer timelines do not change (see
     * docs/SIMULATOR.md, "Deterministic parallel execution").
     * Benches default this from the AZUL_SIM_THREADS env var.
     */
    std::int32_t sim_threads = 1;
    /**
     * Minimum parallel work items (active tiles of a cycle, tree
     * nodes of a dot product) before a pass is dispatched to the
     * pool; smaller passes run on the coordinating thread. Purely a
     * host-performance knob — results are identical either way.
     * Tests lower it to 1 to force parallel execution on tiny grids.
     */
    std::int32_t sim_parallel_grain = 64;

    std::int32_t num_tiles() const { return grid_width * grid_height; }
    TorusGeometry
    geometry() const
    {
        return TorusGeometry{grid_width, grid_height, torus};
    }

    /** Peak FP throughput in GFLOP/s (1 FMAC = 2 FLOP per PE/cycle). */
    double PeakGflops() const;

    /** Total scratchpad capacity in bytes. */
    double TotalSramBytes() const;

    /** One-line summary for reports. */
    std::string ToString() const;
};

/** The paper's Table III configuration (64x64 tiles). */
SimConfig AzulPaperConfig();

/** The scaled-down default used by tests and benches (16x16). */
SimConfig AzulDefaultConfig();

/** Dalorex baseline: same fabric, scalar cores, single-threaded. */
SimConfig DalorexConfig(const SimConfig& base);

/** Idealized-PE configuration for mapping studies (Fig 10/11). */
SimConfig IdealPeConfig(const SimConfig& base);

/**
 * Host thread count from the AZUL_SIM_THREADS environment variable,
 * or `fallback` if unset/invalid. Benches use this so that any figure
 * reproduction can be parallelized without touching its command line.
 */
std::int32_t SimThreadsFromEnv(std::int32_t fallback);

/**
 * Applies a fault-injection spec string to a config. The format is a
 * comma-separated key=value list:
 *
 *     rate=1e-5,kinds=sram|noc|pe,seed=7,interval=32,dir=/tmp/ck,
 *     stall=16,retransmit=8,recoveries=4
 *
 * `kinds` accepts sram, nocdrop, noccorrupt, noc (both NoC kinds),
 * pe, and all, joined with '|'. Unknown keys or malformed values make
 * the whole spec invalid: returns false and leaves `cfg` untouched.
 */
bool ParseFaultSpec(const std::string& spec, SimConfig& cfg);

/** Applies the AZUL_FAULTS environment variable (same format as
 *  ParseFaultSpec) to `cfg`; no-op if unset, empty, or malformed. */
void ApplyFaultEnv(SimConfig& cfg);

} // namespace azul

#endif // AZUL_SIM_CONFIG_H_
