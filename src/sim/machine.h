/**
 * @file
 * The simulated Azul machine: a grid of tiles (PE + scratchpads)
 * connected by a 2-D torus, executing a compiled SolverProgram phase
 * by phase (Sec VI-A's cycle-level methodology).
 *
 * Simulation is functional + timing: messages and accumulators carry
 * real FP64 values, so a simulated solve produces an x vector that
 * callers check against the reference solver.
 *
 * Storage, the phase loop and every non-matrix phase's semantics are
 * shared with the functional engine (execution_engine.h,
 * phase_semantics.h); this engine adds the timing model, split across
 * three translation units:
 *   machine.cc        — construction, fault injection
 *   machine_matrix.cc — matrix-kernel (SpMV/SpTRSV) execution
 *   machine_vector.cc — vector/scalar-phase timing
 * The convergence loop lives in the generic SolverDriver
 * (solver_driver.h); measurement hooks in SimObserver (observer.h).
 *
 * With cfg.sim_threads > 1 the engine shards tiles across a worker
 * pool under an epoch barrier per simulated cycle. Execution is
 * bit-identical to the serial engine at every thread count: each
 * tile's state is touched by exactly one worker per cycle, all shared
 * side effects (stats counters, NoC injections, task counts) are
 * staged in per-worker lanes the coordinating thread folds in a fixed
 * order, and observers fire on the coordinating thread only. The
 * determinism contract is documented in docs/SIMULATOR.md.
 */
#ifndef AZUL_SIM_MACHINE_H_
#define AZUL_SIM_MACHINE_H_

#include <memory>
#include <vector>

#include "dataflow/program.h"
#include "sim/config.h"
#include "sim/execution_engine.h"
#include "sim/fault.h"
#include "sim/noc.h"
#include "sim/pe.h"
#include "sim/sim_stats.h"
#include "sim/solver_driver.h"
#include "solver/vector_ops.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace azul {

/** A NoC injection staged during a tile pass, flushed by the
 *  coordinating thread in active-list position order. */
struct PendingSend {
    Cycle time = 0;
    std::int32_t src_tile = -1;
    Message msg;
};

/**
 * Per-worker accumulator of engine side effects. During a tile pass
 * every shared-state mutation a tick produces is routed through the
 * worker's lane: counter deltas into `stats`, NoC injections into
 * `sends`, task activations/completions into `tasks_delta`. The
 * coordinating thread folds lanes in worker order after each pass.
 * Because workers own contiguous ascending chunks of the active list,
 * flushing sends lane by lane reproduces the serial injection order
 * exactly (and with it the NoC's FCFS tie-breaking); the integer
 * counters are commutative, so their fold order cannot matter.
 */
struct EngineLane {
    SimStats stats;
    std::vector<PendingSend> sends;
    /** Faults injected during the tile pass (PE stalls); reported to
     *  observers by the coordinator in lane order. */
    std::vector<FaultEvent> faults;
    std::int64_t tasks_delta = 0;
    std::int64_t issued = 0;
};

/** The cycle-level machine model (the EngineKind::kCycle engine). */
class Machine : public ExecutionEngine {
  public:
    /** The program must outlive the machine. */
    Machine(SimConfig cfg, const SolverProgram* program);

    EngineKind kind() const override { return EngineKind::kCycle; }

    /** Sets x = 0 and r = b; clears the other vectors, the stats and
     *  the NoC counters. */
    void LoadProblem(const Vector& b) override;

    /** Runs one vector kernel standalone (tests); returns duration. */
    Cycle
    RunVectorKernelForTest(const VectorKernel& kernel)
    {
        const Cycle start = clock_;
        RunVectorKernel(kernel);
        return clock_ - start;
    }

    /** Activates a task directly (tests of buffer-spill behavior). */
    void
    ActivateTaskForTest(std::int32_t tile, const RuntimeTask& task)
    {
        ActivateTask(tile, task, lanes_[0]);
        FoldLaneCounters();
    }

    // ---- Measurement layer -------------------------------------------------
    // Observer attachment is inherited from ExecutionEngine.

    /** Enables Fig 17-style issue sampling during matrix kernels
     *  (built-in equivalent of attaching a TimelineObserver). */
    void
    EnableIssueSampling(Cycle period)
    {
        issue_sample_period_ = period;
    }

    // ---- Robustness layer (sim/fault.h, docs/ROBUSTNESS.md) ----------------
    const FaultInjector* fault_injector() const { return fault_.get(); }

  private:
    /** Draws this phase's SRAM faults, then runs it. */
    void RunPhase(const Phase& phase) override;

    // ---- Matrix-kernel execution (machine_matrix.cc) ----------------------
    void RunMatrixKernel(const MatrixKernel& kernel) override;
    void StartMatrixKernel(const MatrixKernel& kernel);
    void DeliverMessage(const MatrixKernel& kernel, std::int32_t tile,
                        const Message& msg);
    /** Issues ops on one tile for the current cycle; returns number
     *  of ops issued. Touches only the tile's own state and `lane`,
     *  so distinct tiles tick concurrently without races. */
    int TickTile(const MatrixKernel& kernel, std::int32_t tile,
                 Cycle now, EngineLane& lane);
    /** Attempts the next micro-op of a task; returns true if issued
     *  (the task may complete as a side effect). */
    bool TryIssue(const MatrixKernel& kernel, std::int32_t tile,
                  RuntimeTask& task, Cycle now, bool& completed,
                  EngineLane& lane);
    void ActivateTask(std::int32_t tile, RuntimeTask task,
                      EngineLane& lane);
    void
    MarkTileActive(std::int32_t tile)
    {
        if (!tile_active_[static_cast<std::size_t>(tile)]) {
            tile_active_[static_cast<std::size_t>(tile)] = 1;
            active_list_.push_back(tile);
        }
    }

    // ---- Vector-phase timing (machine_vector.cc) --------------------------
    void RunElementwise(const VectorKernel& kernel) override;
    void RunDotReduce(const VectorKernel& kernel) override;
    void RunScalarPhase(const ScalarOp& op) override;
    void RunHostPhase(const HostOp& op) override;
    /** Issue cycles of a full sweep over `slots` values at the active
     *  storage width (fp32 iteration sweeps pack two per word). */
    Cycle SweepCycles(Index slots, std::int32_t cost) const;
    /** Charges the root's work, times broadcasting its values from
     *  the root down the machine-wide tree starting at root_done, and
     *  advances the clock to the last arrival. */
    void BroadcastScalars(Cycle root_done, const phase::RootWork& root);
    /** Advances the clock by a vector-class phase's duration. */
    void
    AdvanceVectorClock(Cycle duration)
    {
        clock_ += duration;
        stats_.cycles += duration;
        stats_.class_cycles[static_cast<std::size_t>(
            KernelClass::kVectorOp)] += duration;
    }

    // ---- Parallel execution ------------------------------------------------
    /** True if a pass over `items` work items should use the pool. */
    bool
    UseParallel(std::size_t items) const
    {
        return pool_ != nullptr &&
               items >= static_cast<std::size_t>(
                            cfg_.sim_parallel_grain);
    }
    /** Runs body(item, lane stats) for every item in [0, items):
     *  sharded across the pool when UseParallel(items), lane counters
     *  folded into stats_ in worker order; serially into stats_
     *  otherwise. */
    template <typename Body>
    void ForEachItem(std::size_t items, Body&& body);
    /** Zeroes every lane (kernel start). */
    void ResetLanes();
    /** Folds lane counter deltas (not sends) into the shared state;
     *  used by coordinator-side activations outside a tile pass. */
    void
    FoldLaneCounters()
    {
        for (EngineLane& lane : lanes_) {
            stats_ += lane.stats;
            lane.stats = SimStats{};
            outstanding_tasks_ += lane.tasks_delta;
            lane.tasks_delta = 0;
        }
    }

    // ---- Fault injection (coordinator-side) --------------------------------
    /** Counts an injected fault and notifies observers. */
    void RecordFault(const FaultEvent& event);
    /** Reports faults the NoC staged since the last drain. */
    void DrainNocFaults();
    /** Draws per-tile SRAM bit flips for the phase about to run;
     *  keyed on the monotonic phase counter so replayed phases draw
     *  fresh decisions. */
    void InjectSramFaults();

    Noc noc_;

    std::vector<TileRun> runs_;
    std::vector<char> tile_active_;
    std::vector<std::int32_t> active_list_;
    std::int64_t outstanding_tasks_ = 0;

    Cycle issue_sample_period_ = 0;
    std::vector<Delivery> delivery_buffer_;

    /** Fault injector (null unless cfg_.faults_enabled()). */
    std::unique_ptr<FaultInjector> fault_;
    /** Monotonic count of phases executed — the per-run key space of
     *  SRAM fault decisions. Never reset (replay must re-draw). */
    std::uint64_t fault_phase_counter_ = 0;
    std::vector<FaultEvent> fault_drain_buffer_;

    /** Worker pool (null when cfg_.sim_threads <= 1) and one lane per
     *  worker; lanes_[0] doubles as the coordinator's sink. */
    std::unique_ptr<ThreadPool> pool_;
    std::vector<EngineLane> lanes_;

    /** Per-kernel timing scratch (tree arrival arrays). Owned by the
     *  coordinating thread, Reset at each dot/scalar kernel entry;
     *  workers only write through pointers it returned
     *  (util/arena.h). */
    Arena scratch_arena_;
};

} // namespace azul

#endif // AZUL_SIM_MACHINE_H_
