/**
 * @file
 * The execution-engine abstraction behind the SolverProgram IR.
 *
 * An ExecutionEngine runs a compiled SolverProgram + tile mapping:
 * load a problem, run the prologue / iterations / residual
 * recomputes, and expose the distributed solver state (vectors,
 * scalar registers), statistics, and checkpoint hooks the generic
 * SolverDriver needs. Two engines implement it:
 *
 *   - Machine (sim/machine.h): the cycle-accurate model — NoC, PE
 *     pipeline, SRAM timing. Ground truth for every paper figure.
 *   - FunctionalEngine (sim/engine_functional.h): a deterministic
 *     ordered task-graph walk with no timing model, for
 *     serving-style throughput (AzulService).
 *
 * One semantics, two clocks: this base class owns everything the two
 * engines share — the distributed vectors in one flat tile-major
 * layout, the scalar registers and bank, the machine-wide scalar
 * tree, the phase loop with its observer bracketing and FP32 rule,
 * and the checkpoint hooks — and every non-matrix phase computes
 * through sim/phase_semantics.h. An engine supplies only how it runs
 * a matrix kernel and what each phase costs in time.
 *
 * Determinism contract: both engines fold every floating-point
 * reduction in the same statically-assigned order (see
 * NodeDesc::stage_offset in dataflow/task.h), so for the same
 * program, mapping, and right-hand side they produce bit-identical
 * x vectors and residual histories — the functional engine is an
 * exact numerical oracle for the cycle engine, and vice versa
 * (docs/SIMULATOR.md, "Choosing an execution engine";
 * tests/test_engine_functional.cc enforces it).
 *
 * Budget contract: SolverDriver charges RunBudget::max_cycles
 * against `clock()`. Engine clocks tick in engine-defined units —
 * simulated cycles for Machine, one tick per RunIteration for
 * FunctionalEngine — documented with RunBudget (solver_driver.h).
 */
#ifndef AZUL_SIM_EXECUTION_ENGINE_H_
#define AZUL_SIM_EXECUTION_ENGINE_H_

#include <algorithm>
#include <array>
#include <vector>

#include "dataflow/message.h"
#include "dataflow/program.h"
#include "dataflow/tree.h"
#include "sim/config.h"
#include "sim/fault.h"
#include "sim/phase_semantics.h"
#include "sim/sim_stats.h"
#include "solver/vector_ops.h"
#include "util/common.h"
#include "util/logging.h"

namespace azul {

class SimObserver;

/** Base of the engines executing a compiled SolverProgram. */
class ExecutionEngine {
  public:
    virtual ~ExecutionEngine() = default;

    /** Which engine this is (EngineKindName for reports). */
    virtual EngineKind kind() const = 0;

    /** Sets x = 0 and r = b; clears the other vectors and stats. */
    virtual void LoadProblem(const Vector& b);

    /** Runs the program prologue. */
    void RunPrologue();

    /** Runs the warm-start prologue (r = b - A x0 + recurrence
     *  restart) instead of RunPrologue when the solution vector holds
     *  a scattered initial guess (docs/TIMESTEPPING.md). */
    void RunWarmPrologue();

    /** Runs one solver iteration. Under PrecisionMode::kFp32 only
     *  these phases quantize: the prologue and residual_recompute run
     *  at full FP64 so true-residual recovery reads unquantized
     *  state. */
    virtual void RunIteration();

    /** Runs the program's residual_recompute phases (if any). */
    void RunResidualRecompute();

    /** Runs program().matrix_kernels[kernel_index] by itself between
     *  the observers' phase hooks and returns its stats delta
     *  (tests, benches). */
    SimStats RunMatrixKernelStandalone(int kernel_index);

    /** Reads a broadcast scalar register. */
    double ReadScalar(ScalarReg reg) const
    {
        return scalar_regs_[static_cast<std::size_t>(reg)];
    }

    /** Gathers a distributed vector into natural index order. */
    Vector GatherVector(VecName which) const;

    /** Writes a vector into the distributed storage. */
    void ScatterVector(VecName which, const Vector& v);

    /** Cumulative statistics since LoadProblem. */
    const SimStats& stats() const { return stats_; }

    const SimConfig& config() const { return cfg_; }

    /** The program this engine executes. */
    const SolverProgram& program() const { return *prog_; }

    /**
     * Monotonic engine clock (not reset by LoadProblem); the unit the
     * driver charges RunBudget::max_cycles in. Simulated cycles for
     * the cycle engine; solver iterations for the functional engine.
     */
    Cycle clock() const { return clock_; }

    // ---- Measurement layer -------------------------------------------------
    /**
     * Attaches a passive observer; the caller retains ownership and
     * must keep it alive until detached or the engine is destroyed.
     * Observers never affect results or timing.
     */
    void
    AttachObserver(SimObserver* observer)
    {
        AZUL_CHECK(observer != nullptr);
        observers_.push_back(observer);
    }

    void
    DetachObserver(SimObserver* observer)
    {
        observers_.erase(std::remove(observers_.begin(),
                                     observers_.end(), observer),
                         observers_.end());
    }

    const std::vector<SimObserver*>& observers() const
    {
        return observers_;
    }

    // ---- Robustness layer (sim/fault.h, docs/ROBUSTNESS.md) ----------------
    /** True if a fault injector is active on this engine (only the
     *  cycle engine accepts a fault-enabled config). */
    bool faults_enabled() const { return cfg_.faults_enabled(); }

    /**
     * Snapshots the architectural state (vectors + scalar registers)
     * at driver iteration `iteration`. Host-side: costs zero
     * simulated time. The driver fills the solve-position fields.
     */
    MachineCheckpoint CaptureCheckpoint(Index iteration);

    /** Restores a checkpoint's architectural state; `from_iteration`
     *  is where the solve was when corruption was detected (for the
     *  observer timeline). The clock and stats are NOT rewound —
     *  recovery costs real simulated time. */
    void RestoreCheckpoint(const MachineCheckpoint& checkpoint,
                           Index from_iteration);

    /** Records a driver-side corruption detection (counter +
     *  observer notification). */
    void RecordFaultDetected(Index iteration, double residual_norm);

  protected:
    /** Checks that the program was compiled for cfg's machine and
     *  lays out the shared state. The program must outlive the
     *  engine. */
    ExecutionEngine(SimConfig cfg, const SolverProgram* program);

    // ---- Engine hooks: one per phase kind ----------------------------------
    // Each computes through the shared semantics and advances the
    // engine's own clock, if it has one.
    virtual void RunMatrixKernel(const MatrixKernel& kernel) = 0;
    virtual void RunElementwise(const VectorKernel& kernel) = 0;
    virtual void RunDotReduce(const VectorKernel& kernel) = 0;
    virtual void RunScalarPhase(const ScalarOp& op) = 0;
    virtual void RunHostPhase(const HostOp& op) = 0;

    /** Runs one phase through the hooks, then applies the FP32 rule
     *  while iteration phases run under PrecisionMode::kFp32. */
    virtual void RunPhase(const Phase& phase);

    void
    RunVectorKernel(const VectorKernel& kernel)
    {
        if (kernel.op == VecOpKind::kDotReduce) {
            RunDotReduce(kernel);
        } else {
            RunElementwise(kernel);
        }
    }

    // ---- Shared semantics over the flat storage ----------------------------
    /** Flat data of an operand: the bank slot when `bank_slot` >= 0,
     *  the named vector otherwise. */
    std::vector<double>&
    Operand(VecName name, std::int32_t bank_slot)
    {
        return bank_slot >= 0
                   ? bank_[static_cast<std::size_t>(bank_slot)]
                   : vecs_[static_cast<std::size_t>(name)];
    }

    /** Slots homed on `tile` (its flat range's length). */
    Index
    TileSlots(std::size_t tile) const
    {
        return tile_begin_[tile + 1] - tile_begin_[tile];
    }

    /** The kernel's scale (phase::ElementwiseScale), resolved once
     *  per kernel rather than per tile. */
    double
    ElementwiseScale(const VectorKernel& kernel) const
    {
        return phase::ElementwiseScale(kernel, scalar_regs_.data(),
                                       scalar_bank_.data());
    }

    /** The kernel's elementwise sweep over flat slots [begin,
     *  begin + n) at `scale`. */
    PhaseCost SweepSlots(const VectorKernel& kernel, double scale,
                         std::size_t begin, std::size_t n);

    /** Scalar-tree node `node`'s tile-local dot partial, stored in
     *  dot_partials_[node]. */
    PhaseCost DotPartialOfNode(const VectorKernel& kernel,
                               std::size_t node);

    /** Folds dot_partials_, charges the reduce tree's ops, and runs
     *  the root post-ops; the caller broadcasts the result. */
    phase::RootWork FoldDot(const VectorKernel& kernel);

    /** Charges the root's ops and the broadcast of its values down
     *  the scalar tree. */
    void
    ChargeBroadcast(const phase::RootWork& root)
    {
        stats_ += root.cost;
        stats_ += phase::BroadcastCost(scalar_tree_edges_,
                                       root.broadcast_values);
    }

    /** Global slot -> flat storage index. */
    std::size_t
    FlatIndex(Index slot) const
    {
        return static_cast<std::size_t>(
            slot_flat_[static_cast<std::size_t>(slot)]);
    }
    double
    ReadSlot(VecName vec, Index slot) const
    {
        return vecs_[static_cast<std::size_t>(vec)][FlatIndex(slot)];
    }
    void
    WriteSlot(VecName vec, Index slot, double value)
    {
        vecs_[static_cast<std::size_t>(vec)][FlatIndex(slot)] = value;
    }

    SimConfig cfg_;
    const SolverProgram* prog_;
    TorusGeometry geom_;

    /** Distributed vectors, flat in tile-major slot order:
     *  vecs_[v][tile_begin_[t] + local] is slot `local` of tile t,
     *  its homed slots in ascending global order — so each tile's
     *  slot order, which fixes its dot-partial fold order, is one
     *  layout for both engines. */
    std::array<std::vector<double>, static_cast<std::size_t>(
                                        VecName::kCount)>
        vecs_;
    /** Multi-vector register bank in the same layout (GMRES's Krylov
     *  basis; SolverProgram::num_bank_vectors entries). */
    std::vector<std::vector<double>> bank_;
    /** 1/diag(A) in the same layout (Jacobi), if used. */
    std::vector<double> inv_diag_;
    /** Flat-range start of each tile (num_tiles + 1 entries). */
    std::vector<std::int32_t> tile_begin_;
    /** Global slot -> flat storage index. */
    std::vector<std::int32_t> slot_flat_;

    /** Scalar registers (functionally global; broadcast is timed by
     *  the cycle engine). */
    std::array<double, static_cast<std::size_t>(ScalarReg::kCount)>
        scalar_regs_{};
    /** Broadcast scalar bank (SolverProgram::num_bank_scalars): the
     *  Hessenberg entries + beta + y of GMRES. Like the vector bank
     *  it is per-restart scratch, excluded from checkpoints. */
    std::vector<double> scalar_bank_;
    /** True while iteration phases run under PrecisionMode::kFp32
     *  (end-of-phase quantization; the cycle engine also packs two
     *  values per word in its sweep timing). */
    bool fp32_active_ = false;

    /** Machine-wide scalar reduction/broadcast tree (rooted at 0):
     *  fixes the cross-tile dot fold order and the tree op counts. */
    TreeTopology scalar_tree_;
    std::vector<std::vector<std::int32_t>> scalar_tree_children_;
    std::uint64_t scalar_tree_edges_ = 0;
    /** Per-node dot partials (one per scalar-tree node). */
    std::vector<double> dot_partials_;

    Cycle clock_ = 0;
    SimStats stats_;

    /** Attached observers; engines notify them on the coordinating
     *  thread only (see observer.h). */
    std::vector<SimObserver*> observers_;

  private:
    void RunPhases(const std::vector<Phase>& phases);
    /** Runs `run` between the observers' phase hooks for `phase`. */
    template <typename Run>
    void Observed(const Phase& phase, int index, Run&& run);
};

} // namespace azul

#endif // AZUL_SIM_EXECUTION_ENGINE_H_
