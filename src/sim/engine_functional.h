/**
 * @file
 * The functional execution engine (EngineKind::kFunctional): runs a
 * compiled SolverProgram + tile mapping as a deterministic ordered
 * task-graph walk with no per-cycle NoC/router/SRAM timing model.
 *
 * Bit-identity: every floating-point reduction is folded in the same
 * statically-assigned order the cycle engine uses — column-task
 * partials via ColumnOp::acc_ord, reduce-tree contributions via the
 * build-time ordinals on NodeDesc/AccumDesc, tile-local dot partials
 * in slot order, and the cross-tile dot in ascending scalar-tree node
 * order. For the same program, mapping, and right-hand side the
 * functional engine therefore produces the exact FP64 x vector and
 * residual history the cycle-accurate Machine does, at any
 * cfg.sim_threads (tests/test_engine_functional.cc).
 *
 * Host-side layout (docs/PERFORMANCE.md): the engines share one flat
 * tile-major storage (execution_engine.h), so every non-matrix phase
 * runs the shared semantics (sim/phase_semantics.h) in one contiguous
 * sweep over the whole vector — per-tile slot order, and with it the
 * dot-partial fold order, is unchanged — and tape instructions
 * address storage with one flat index.
 *
 * What it does NOT model: cycle timing (stats().cycles counts solver
 * iterations, not hardware cycles — see RunBudget in solver_driver.h),
 * message-buffer spills, PE stalls/idle time, per-kernel class cycle
 * attribution, per-tile op attribution (tile_ops), matrix-kernel link
 * activations, and fault injection (construction requires
 * cfg.faults_enabled() == false; AzulSystem::Create rejects the
 * combination). Arithmetic op / message / SRAM-traffic counts use the
 * same per-event accounting as the cycle engine — tallied on a
 * kernel's first walk and replayed as a per-kernel constant after
 * that (the walk's control flow is data-independent) — so in
 * spill-free runs they match it exactly.
 *
 * Paper figures always use the cycle engine; this engine exists for
 * serving-style throughput (AzulService) where only the numerics
 * matter (docs/SIMULATOR.md, "Choosing an execution engine").
 */
#ifndef AZUL_SIM_ENGINE_FUNCTIONAL_H_
#define AZUL_SIM_ENGINE_FUNCTIONAL_H_

#include <unordered_map>
#include <vector>

#include "dataflow/program.h"
#include "sim/execution_engine.h"

namespace azul {

/** The timing-free functional engine. */
class FunctionalEngine : public ExecutionEngine {
  public:
    /** The program must outlive the engine. Requires
     *  !cfg.faults_enabled(): fault injection needs the timing model. */
    FunctionalEngine(SimConfig cfg, const SolverProgram* program);

    EngineKind kind() const override
    {
        return EngineKind::kFunctional;
    }

    /** Runs one solver iteration and advances clock() by one tick:
     *  RunBudget::max_cycles becomes an iteration budget under this
     *  engine, and stats().cycles counts iterations executed. */
    void RunIteration() override;

  private:
    /** One queued task of the compile walk (RecordMatrixKernel). */
    struct WorkItem {
        enum class Kind : std::uint8_t {
            kMulticast, //!< deliver `value` to a multicast node
            kReduce,    //!< stage `value` at ordinal `ord`
            kSolveZero, //!< fire a zero-expected reduce root (acc=0)
        };
        Kind kind = Kind::kMulticast;
        std::int32_t tile = -1;
        NodeId node = -1;
        double value = 0.0;
        /** kReduce: staging ordinal at the target node. kMulticast:
         *  tape value register carrying `value` (all forwarded copies
         *  of a multicast share one register). */
        std::int32_t ord = 0;
    };

    /** One instruction of a compiled kernel tape (RecordMatrixKernel
     *  explains the compilation; ReplayTape is the interpreter). Fold
     *  instructions sum their staged range in ordinal order, so the
     *  replay performs the exact FP additions of the queue walk. */
    struct TapeInstr {
        enum class Op : std::uint8_t {
            kLoadRoot,    //!< values_[val] = input_vec[dst]
            kAccFold,     //!< stage_[dst] = sum_k coeff[a+k] *
                          //!< values_[acc_val[a+k]], k < b — the
                          //!< column-task partial, products formed at
                          //!< fold time in ordinal order (identical
                          //!< bits to staging each product first,
                          //!< since only addition order matters)
            kFoldForward, //!< stage_[dst] = fold of a node range
            kFoldOutput,  //!< output_vec[dst] = fold of [a, a+b)
            kFoldSolve,   //!< x = (rhs[dst] - fold) * inv_diag; also
                          //!< values_[val] = x for the trigger
        };
        Op op = Op::kLoadRoot;
        std::int32_t val = -1; //!< value register
        std::int32_t a = 0;    //!< acc-table / node-stage fold base
        std::int32_t b = 0;    //!< fold count
        std::int32_t dst = 0;  //!< stage slot (folds) or flat storage
                               //!< index (loads/outputs/solves)
        double inv_diag = 0.0; //!< kFoldSolve reciprocal
    };

    /** A matrix kernel compiled on its first execution. The queue
     *  walk's control flow depends only on the task graph, never on
     *  the flowing values, so one recorded walk yields a straight-line
     *  instruction tape that every later run replays — and the stats
     *  delta of a walk is a per-kernel constant replayed with it.
     *
     *  The column-task FMA table is stored structure-of-arrays
     *  (acc_coeff / acc_val, indexed by the accumulator staging layout
     *  of the cycle engine), and kAccFold consumes it directly —
     *  replay never materializes per-product staging, halving the
     *  tape's memory traffic versus the scatter-then-fold scheme. */
    struct KernelCache {
        std::vector<double> acc_coeff;     //!< per-op coefficient
        std::vector<std::int32_t> acc_val; //!< per-op value register
        std::vector<TapeInstr> instrs;
        std::int32_t stage_size = 0; //!< node-fold staging doubles
        std::int32_t num_values = 0; //!< value registers (roots+solves)
        bool has_rhs = false;        //!< kernel.rhs_vec is a real vector
        SimStats delta;              //!< ops/messages/SRAM of one walk
        bool ready = false;
    };

    /** Recording state of one compile walk (flat staging bases and
     *  the per-event stat tallies flushed into KernelCache::delta). */
    struct TapeRecorder {
        std::vector<std::int32_t> acc_base;  //!< per-tile acc-table base
        std::vector<std::int32_t> node_base; //!< per-tile staging base
        std::uint64_t fmac = 0;
        std::uint64_t add = 0;
        std::uint64_t mul = 0;
        std::uint64_t send = 0;
        std::uint64_t messages = 0;
        std::uint64_t sram_reads = 0;
        std::uint64_t sram_writes = 0;
    };

    void RunMatrixKernel(const MatrixKernel& kernel) override;
    void RunElementwise(const VectorKernel& kernel) override;
    void RunDotReduce(const VectorKernel& kernel) override;
    void RunScalarPhase(const ScalarOp& op) override;
    void RunHostPhase(const HostOp& op) override;

    /** First execution of a kernel: the queue walk, which both solves
     *  and compiles the tape + stats delta into `cache`. */
    void RecordMatrixKernel(const MatrixKernel& kernel,
                            KernelCache& cache);
    /** Every later execution: straight-line tape interpretation. */
    void ReplayTape(const MatrixKernel& kernel,
                    const KernelCache& cache);
    /** Completes a reduce node whose fold produced `sum`; emits the
     *  node's fold instruction (`src`/`count` give the staged range). */
    void FinishReduce(const MatrixKernel& kernel,
                      const WorkItem& item, double sum,
                      std::int32_t src, std::int32_t count,
                      KernelCache& cache, TapeRecorder& rec);

    /** Per-tile matrix-kernel scratch (fold buffers + countdowns),
     *  used only by the one recorded walk of each kernel. */
    struct TileScratch {
        std::vector<double> acc_contrib;
        std::vector<std::int32_t> acc_remaining;
        std::vector<double> node_contrib;
        std::vector<std::int32_t> node_remaining;
    };
    std::vector<TileScratch> scratch_;
    /** FIFO worklist of a compile walk (head index, not pops, so the
     *  buffer's capacity is reused across kernel runs). */
    std::vector<WorkItem> queue_;
    std::unordered_map<const MatrixKernel*, KernelCache>
        kernel_cache_;
    /** Node-fold staging and value registers of a tape replay. */
    std::vector<double> stage_;
    std::vector<double> values_;
};

} // namespace azul

#endif // AZUL_SIM_ENGINE_FUNCTIONAL_H_
