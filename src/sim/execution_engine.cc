/**
 * @file
 * The state and orchestration both engines share: construction, the
 * flat distributed storage, the phase loop with its observer
 * bracketing and FP32 rule, and the checkpoint hooks.
 */
#include "sim/execution_engine.h"

#include "sim/observer.h"

namespace azul {

namespace {

PhaseInfo
MakePhaseInfo(const SolverProgram& prog, const Phase& phase, int index)
{
    PhaseInfo info;
    info.kind = phase.kind;
    info.index = index;
    switch (phase.kind) {
      case Phase::Kind::kMatrix: {
        const MatrixKernel& kernel =
            prog.matrix_kernels[static_cast<std::size_t>(
                phase.matrix_kernel)];
        info.kclass = kernel.kclass;
        info.name = kernel.name;
        break;
      }
      case Phase::Kind::kVector:
        info.kclass = KernelClass::kVectorOp;
        info.name = phase.vec.ToString();
        break;
      case Phase::Kind::kScalar:
        info.kclass = KernelClass::kVectorOp;
        info.name = "scalar";
        break;
      case Phase::Kind::kHost:
        info.kclass = KernelClass::kVectorOp;
        info.name = "host-lsq";
        break;
    }
    return info;
}

} // namespace

ExecutionEngine::ExecutionEngine(SimConfig cfg,
                                 const SolverProgram* program)
    : cfg_(std::move(cfg)), prog_(program), geom_(cfg_.geometry())
{
    AZUL_CHECK(prog_ != nullptr);
    AZUL_CHECK_MSG(geom_.num_tiles() ==
                       static_cast<std::int32_t>(
                           prog_->geom.num_tiles()),
                   "program compiled for a different machine size");
    AZUL_CHECK_MSG(geom_.wrap == prog_->geom.wrap,
                   "program compiled for a different topology "
                   "(torus vs mesh)");

    // Shard slots by home tile, flattened tile-major: tile t's flat
    // range lists its homed slots in ascending global order.
    const Index n = static_cast<Index>(prog_->vec_tile.size());
    const auto num_tiles = static_cast<std::size_t>(geom_.num_tiles());
    tile_begin_.assign(num_tiles + 1, 0);
    for (Index i = 0; i < n; ++i) {
        ++tile_begin_[static_cast<std::size_t>(
                          prog_->vec_tile[static_cast<std::size_t>(
                              i)]) +
                      1];
    }
    for (std::size_t t = 0; t < num_tiles; ++t) {
        tile_begin_[t + 1] += tile_begin_[t];
    }
    slot_flat_.assign(static_cast<std::size_t>(n), -1);
    std::vector<std::int32_t> cursor(tile_begin_.begin(),
                                     tile_begin_.end() - 1);
    for (Index i = 0; i < n; ++i) {
        slot_flat_[static_cast<std::size_t>(i)] =
            cursor[static_cast<std::size_t>(
                prog_->vec_tile[static_cast<std::size_t>(i)])]++;
    }
    for (auto& v : vecs_) {
        v.assign(static_cast<std::size_t>(n), 0.0);
    }
    bank_.assign(static_cast<std::size_t>(prog_->num_bank_vectors),
                 std::vector<double>(static_cast<std::size_t>(n),
                                     0.0));
    scalar_bank_.assign(
        static_cast<std::size_t>(prog_->num_bank_scalars), 0.0);
    if (!prog_->jacobi_inv_diag.empty()) {
        inv_diag_.assign(static_cast<std::size_t>(n), 0.0);
        for (Index i = 0; i < n; ++i) {
            inv_diag_[FlatIndex(i)] =
                prog_->jacobi_inv_diag[static_cast<std::size_t>(i)];
        }
    }

    std::vector<std::int32_t> all_tiles(num_tiles);
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        all_tiles[static_cast<std::size_t>(t)] = t;
    }
    scalar_tree_ = BuildTorusTree(geom_, 0, all_tiles);
    scalar_tree_children_ = scalar_tree_.Children();
    for (const auto& children : scalar_tree_children_) {
        scalar_tree_edges_ += children.size();
    }
    dot_partials_.assign(scalar_tree_.size(), 0.0);
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

Vector
ExecutionEngine::GatherVector(VecName which) const
{
    Vector out(prog_->vec_tile.size(), 0.0);
    for (Index i = 0; i < static_cast<Index>(out.size()); ++i) {
        out[static_cast<std::size_t>(i)] = ReadSlot(which, i);
    }
    return out;
}

void
ExecutionEngine::ScatterVector(VecName which, const Vector& v)
{
    AZUL_CHECK(v.size() == prog_->vec_tile.size());
    for (Index i = 0; i < static_cast<Index>(v.size()); ++i) {
        WriteSlot(which, i, v[static_cast<std::size_t>(i)]);
    }
}

void
ExecutionEngine::LoadProblem(const Vector& b)
{
    for (auto& v : vecs_) {
        std::fill(v.begin(), v.end(), 0.0);
    }
    for (auto& v : bank_) {
        std::fill(v.begin(), v.end(), 0.0);
    }
    ScatterVector(VecName::kB, b);
    ScatterVector(VecName::kR, b);
    scalar_regs_.fill(0.0);
    std::fill(scalar_bank_.begin(), scalar_bank_.end(), 0.0);
    stats_ = SimStats{};
}

// ---------------------------------------------------------------------------
// Shared phase semantics
// ---------------------------------------------------------------------------

PhaseCost
ExecutionEngine::SweepSlots(const VectorKernel& kernel, double scale,
                            std::size_t begin, std::size_t n)
{
    const double* const inv_diag =
        inv_diag_.empty() ? nullptr : inv_diag_.data() + begin;
    return phase::Elementwise(
        kernel, scale, Operand(kernel.dst, kernel.dst_bank).data() + begin,
        Operand(kernel.src_a, kernel.src_a_bank).data() + begin,
        Operand(kernel.src_b, kernel.src_b_bank).data() + begin,
        inv_diag, n);
}

PhaseCost
ExecutionEngine::DotPartialOfNode(const VectorKernel& kernel,
                                  std::size_t node)
{
    const auto tile =
        static_cast<std::size_t>(scalar_tree_.tiles[node]);
    const auto begin = static_cast<std::size_t>(tile_begin_[tile]);
    return phase::DotPartial(
        Operand(kernel.src_a, kernel.src_a_bank).data() + begin,
        Operand(kernel.src_b, kernel.src_b_bank).data() + begin,
        static_cast<std::size_t>(TileSlots(tile)), dot_partials_[node]);
}

phase::RootWork
ExecutionEngine::FoldDot(const VectorKernel& kernel)
{
    stats_ += phase::ReduceTreeCost(scalar_tree_edges_);
    return phase::DotRoot(
        kernel,
        phase::FoldPartials(dot_partials_.data(), dot_partials_.size()),
        scalar_regs_.data(), scalar_bank_.data());
}

// ---------------------------------------------------------------------------
// Program execution
// ---------------------------------------------------------------------------

template <typename Run>
void
ExecutionEngine::Observed(const Phase& phase, int index, Run&& run)
{
    if (observers_.empty()) {
        run();
        return;
    }
    const PhaseInfo info = MakePhaseInfo(*prog_, phase, index);
    const SimStats before = stats_;
    for (SimObserver* o : observers_) {
        o->OnPhaseStart(info, clock_);
    }
    run();
    const SimStats delta = stats_ - before;
    for (SimObserver* o : observers_) {
        o->OnPhaseEnd(info, clock_, delta);
    }
}

void
ExecutionEngine::RunPhase(const Phase& phase)
{
    switch (phase.kind) {
      case Phase::Kind::kMatrix:
        RunMatrixKernel(prog_->matrix_kernels[static_cast<std::size_t>(
            phase.matrix_kernel)]);
        break;
      case Phase::Kind::kVector:
        RunVectorKernel(phase.vec);
        break;
      case Phase::Kind::kScalar:
        RunScalarPhase(phase.scalar);
        break;
      case Phase::Kind::kHost:
        RunHostPhase(phase.host);
        break;
    }
    if (!fp32_active_) {
        return;
    }
    if (const auto target = phase::QuantizedOperand(*prog_, phase)) {
        std::vector<double>& v = Operand(target->name, target->bank);
        phase::QuantizeFp32(v.data(), v.size());
    }
}

void
ExecutionEngine::RunPhases(const std::vector<Phase>& phases)
{
    for (std::size_t i = 0; i < phases.size(); ++i) {
        Observed(phases[i], static_cast<int>(i),
                 [&] { RunPhase(phases[i]); });
    }
}

void
ExecutionEngine::RunPrologue()
{
    RunPhases(prog_->prologue);
}

void
ExecutionEngine::RunWarmPrologue()
{
    RunPhases(prog_->warm_prologue);
}

void
ExecutionEngine::RunIteration()
{
    fp32_active_ = cfg_.precision == PrecisionMode::kFp32;
    RunPhases(prog_->iteration);
    fp32_active_ = false;
}

void
ExecutionEngine::RunResidualRecompute()
{
    RunPhases(prog_->residual_recompute);
}

SimStats
ExecutionEngine::RunMatrixKernelStandalone(int kernel_index)
{
    AZUL_CHECK(kernel_index >= 0 &&
               kernel_index <
                   static_cast<int>(prog_->matrix_kernels.size()));
    const SimStats before = stats_;
    Observed(Phase::Matrix(kernel_index), kernel_index, [&] {
        RunMatrixKernel(prog_->matrix_kernels[static_cast<std::size_t>(
            kernel_index)]);
    });
    return stats_ - before;
}

// ---------------------------------------------------------------------------
// Robustness hooks (host-side state snapshots)
// ---------------------------------------------------------------------------

MachineCheckpoint
ExecutionEngine::CaptureCheckpoint(Index iteration)
{
    MachineCheckpoint ck;
    ck.iteration = iteration;
    for (std::size_t v = 0;
         v < static_cast<std::size_t>(VecName::kCount); ++v) {
        ck.vecs[v] = GatherVector(static_cast<VecName>(v));
    }
    ck.scalar_regs = scalar_regs_;
    ++stats_.checkpoints;
    for (SimObserver* o : observers_) {
        o->OnCheckpointTaken(iteration, clock_);
    }
    return ck;
}

void
ExecutionEngine::RestoreCheckpoint(const MachineCheckpoint& checkpoint,
                                   Index from_iteration)
{
    for (std::size_t v = 0;
         v < static_cast<std::size_t>(VecName::kCount); ++v) {
        ScatterVector(static_cast<VecName>(v), checkpoint.vecs[v]);
    }
    scalar_regs_ = checkpoint.scalar_regs;
    ++stats_.rollbacks;
    for (SimObserver* o : observers_) {
        o->OnRollback(from_iteration, checkpoint.iteration, clock_);
    }
}

void
ExecutionEngine::RecordFaultDetected(Index iteration,
                                     double residual_norm)
{
    ++stats_.faults_detected;
    for (SimObserver* o : observers_) {
        o->OnFaultDetected(iteration, residual_norm, clock_);
    }
}

} // namespace azul
