/**
 * @file
 * Functional engine implementation: a FIFO walk over the compiled
 * task graph. Because every FP reduction is folded from statically
 * staged contributions (the canonical fold order the cycle engine
 * also uses), the walk order cannot affect results — the queue is
 * purely a traversal mechanism, not a timing model.
 *
 * The walk's control flow is also data-independent, so a kernel's
 * first execution records the walk into a straight-line tape
 * (KernelCache): the SoA column-op table, the fold instructions in
 * completion order, and the constant stats delta of one walk. Every
 * later execution replays the tape — no queue, no countdowns, no
 * node-table lookups — performing the identical FP operations in the
 * identical order, so the replay is bit-equal to the walk. Column
 * partials are computed directly from the SoA table at fold time
 * (kAccFold): reordering multiplications is exact, only the addition
 * order matters, and that is preserved per-ordinal — so the replay
 * skips the product-staging pass entirely.
 */
#include "sim/engine_functional.h"

#include "util/logging.h"

namespace azul {

FunctionalEngine::FunctionalEngine(SimConfig cfg,
                                   const SolverProgram* program)
    : ExecutionEngine(std::move(cfg), program)
{
    AZUL_CHECK_MSG(!cfg_.faults_enabled(),
                   "the functional engine does not model fault "
                   "injection; use the cycle engine");
    scratch_.resize(static_cast<std::size_t>(geom_.num_tiles()));
}

// ---------------------------------------------------------------------------
// Matrix kernels. First execution of a kernel: a FIFO task-graph walk
// with canonical folds, recorded into a straight-line tape. Later
// executions: tape replay (ReplayTape).
// ---------------------------------------------------------------------------

void
FunctionalEngine::FinishReduce(const MatrixKernel& kernel,
                               const WorkItem& item, double sum,
                               std::int32_t src, std::int32_t count,
                               KernelCache& cache, TapeRecorder& rec)
{
    const TileKernel& tk =
        kernel.tiles[static_cast<std::size_t>(item.tile)];
    const NodeDesc& node =
        tk.nodes[static_cast<std::size_t>(item.node)];
    if (node.parent.valid()) {
        ++rec.messages;
        const NodeDesc& parent =
            kernel.tiles[static_cast<std::size_t>(node.parent.tile)]
                .nodes[static_cast<std::size_t>(node.parent.node)];
        TapeInstr in;
        in.op = TapeInstr::Op::kFoldForward;
        in.a = src;
        in.b = count;
        in.dst = rec.node_base[static_cast<std::size_t>(
                     node.parent.tile)] +
                 parent.stage_offset + node.parent_ord;
        cache.instrs.push_back(in);
        queue_.push_back(WorkItem{WorkItem::Kind::kReduce,
                                  node.parent.tile, node.parent.node,
                                  sum, node.parent_ord});
        return;
    }
    if (node.final_action == FinalAction::kWriteOutput) {
        WriteSlot(kernel.output_vec, node.slot, sum);
        ++rec.sram_writes;
        TapeInstr in;
        in.op = TapeInstr::Op::kFoldOutput;
        in.a = src;
        in.b = count;
        in.dst = slot_flat_[static_cast<std::size_t>(node.slot)];
        cache.instrs.push_back(in);
        return;
    }
    AZUL_CHECK(node.final_action == FinalAction::kSolve);
    ++rec.mul;
    rec.sram_reads += 2; // rhs + 1/diag
    ++rec.sram_writes;
    const double rhs = kernel.rhs_vec == VecName::kCount
                           ? 0.0
                           : ReadSlot(kernel.rhs_vec, node.slot);
    const double x =
        (rhs - sum) *
        kernel.inv_diag[static_cast<std::size_t>(node.slot)];
    WriteSlot(kernel.output_vec, node.slot, x);
    TapeInstr in;
    in.op = TapeInstr::Op::kFoldSolve;
    in.a = src;
    in.b = count;
    in.dst = slot_flat_[static_cast<std::size_t>(node.slot)];
    in.inv_diag =
        kernel.inv_diag[static_cast<std::size_t>(node.slot)];
    if (node.trigger_node != -1) {
        in.val = cache.num_values++;
        queue_.push_back(WorkItem{WorkItem::Kind::kMulticast,
                                  item.tile, node.trigger_node, x,
                                  in.val});
    }
    cache.instrs.push_back(in);
}

void
FunctionalEngine::RecordMatrixKernel(const MatrixKernel& kernel,
                                     KernelCache& cache)
{
    cache.has_rhs = kernel.rhs_vec != VecName::kCount;

    // Two flat index spaces: the SoA column-op table (acc_coeff /
    // acc_val, in the cycle engine's accumulator staging layout) and
    // the node-fold staging buffer (stage_).
    TapeRecorder rec;
    rec.acc_base.resize(kernel.tiles.size());
    rec.node_base.resize(kernel.tiles.size());
    std::int32_t acc_total = 0;
    std::int32_t node_total = 0;
    for (std::size_t t = 0; t < kernel.tiles.size(); ++t) {
        rec.acc_base[t] = acc_total;
        acc_total += kernel.tiles[t].acc_stage_size;
        rec.node_base[t] = node_total;
        node_total += kernel.tiles[t].node_stage_size;
    }
    cache.stage_size = node_total;
    // Every entry is written below: the build-time ordinals are a
    // bijection onto each accumulator's [0, expected) range, and the
    // walk delivers every contribution.
    cache.acc_coeff.resize(static_cast<std::size_t>(acc_total));
    cache.acc_val.resize(static_cast<std::size_t>(acc_total));

    // Seed the per-tile fold scratch for the one recorded walk. No
    // zero-fill of the staging buffers: every staged slot is written
    // before the fold that reads it (same bijection argument).
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        const TileKernel& tk =
            kernel.tiles[static_cast<std::size_t>(t)];
        TileScratch& sc = scratch_[static_cast<std::size_t>(t)];
        sc.acc_contrib.resize(
            static_cast<std::size_t>(tk.acc_stage_size));
        sc.node_contrib.resize(
            static_cast<std::size_t>(tk.node_stage_size));
        sc.acc_remaining.resize(tk.accums.size());
        for (std::size_t a = 0; a < tk.accums.size(); ++a) {
            sc.acc_remaining[a] = tk.accums[a].expected;
        }
        sc.node_remaining.resize(tk.nodes.size());
        for (std::size_t nd = 0; nd < tk.nodes.size(); ++nd) {
            sc.node_remaining[nd] = tk.nodes[nd].expected;
        }
    }

    // Fire initial nodes in the cycle engine's order: ascending tile,
    // initial_nodes order within a tile. (Any order would produce the
    // same bits — the folds are canonical — but matching keeps the
    // walk easy to reason about.)
    queue_.clear();
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        const TileKernel& tk =
            kernel.tiles[static_cast<std::size_t>(t)];
        for (NodeId n : tk.initial_nodes) {
            const NodeDesc& node =
                tk.nodes[static_cast<std::size_t>(n)];
            if (node.kind == NodeKind::kMulticast) {
                ++rec.sram_reads;
                TapeInstr in;
                in.op = TapeInstr::Op::kLoadRoot;
                in.val = cache.num_values++;
                in.dst = slot_flat_[static_cast<std::size_t>(
                    node.source_slot)];
                cache.instrs.push_back(in);
                queue_.push_back(WorkItem{
                    WorkItem::Kind::kMulticast, t, n,
                    ReadSlot(kernel.input_vec, node.source_slot),
                    in.val});
            } else {
                // Reduce root with no contributions: straight to the
                // solve stage with an empty (zero) fold.
                queue_.push_back(WorkItem{
                    WorkItem::Kind::kSolveZero, t, n, 0.0, 0});
            }
        }
    }

    // FIFO over a head index; pushes may reallocate, so copy the item
    // out before dispatching on it.
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const WorkItem item = queue_[head];
        const TileKernel& tk =
            kernel.tiles[static_cast<std::size_t>(item.tile)];
        TileScratch& sc =
            scratch_[static_cast<std::size_t>(item.tile)];
        const NodeDesc& node =
            tk.nodes[static_cast<std::size_t>(item.node)];

        switch (item.kind) {
          case WorkItem::Kind::kMulticast: {
            // One send + input read + message per forwarded copy (the
            // copies share the multicast's value register); one FMAC +
            // nonzero/accumulator traffic per column op.
            const auto fanout =
                static_cast<std::uint64_t>(node.children.size());
            const auto ops =
                static_cast<std::uint64_t>(node.num_ops);
            rec.send += fanout;
            rec.sram_reads += fanout + 2 * ops;
            rec.messages += fanout;
            rec.fmac += ops;
            rec.sram_writes += ops;
            for (const NodeRef& child : node.children) {
                queue_.push_back(WorkItem{WorkItem::Kind::kMulticast,
                                          child.tile, child.node,
                                          item.value, item.ord});
            }
            for (std::int32_t j = 0; j < node.num_ops; ++j) {
                const ColumnOp& op =
                    tk.ops[static_cast<std::size_t>(node.first_op +
                                                    j)];
                const AccumDesc& acc =
                    tk.accums[static_cast<std::size_t>(op.acc)];
                const std::int32_t stage_at =
                    acc.stage_offset + op.acc_ord;
                const std::int32_t table_at =
                    rec.acc_base[static_cast<std::size_t>(
                        item.tile)] +
                    stage_at;
                cache.acc_coeff[static_cast<std::size_t>(table_at)] =
                    op.coeff;
                cache.acc_val[static_cast<std::size_t>(table_at)] =
                    item.ord;
                sc.acc_contrib[static_cast<std::size_t>(stage_at)] =
                    op.coeff * item.value;
                if (--sc.acc_remaining[static_cast<std::size_t>(
                        op.acc)] == 0) {
                    double sum = 0.0;
                    for (std::int32_t k = 0; k < acc.expected; ++k) {
                        sum += sc.acc_contrib[static_cast<std::size_t>(
                            acc.stage_offset + k)];
                    }
                    ++rec.messages;
                    // Every value register the fold reads is defined
                    // by an earlier tape instruction: this multicast's
                    // register (and those of all earlier arrivals)
                    // precede the fold in completion order.
                    const NodeDesc& dest =
                        kernel
                            .tiles[static_cast<std::size_t>(
                                acc.dest.tile)]
                            .nodes[static_cast<std::size_t>(
                                acc.dest.node)];
                    TapeInstr in;
                    in.op = TapeInstr::Op::kAccFold;
                    in.a = rec.acc_base[static_cast<std::size_t>(
                               item.tile)] +
                           acc.stage_offset;
                    in.b = acc.expected;
                    in.dst = rec.node_base[static_cast<std::size_t>(
                                 acc.dest.tile)] +
                             dest.stage_offset + acc.dest_ord;
                    cache.instrs.push_back(in);
                    queue_.push_back(WorkItem{WorkItem::Kind::kReduce,
                                              acc.dest.tile,
                                              acc.dest.node, sum,
                                              acc.dest_ord});
                }
            }
            break;
          }
          case WorkItem::Kind::kReduce: {
            ++rec.add;
            ++rec.sram_reads;
            ++rec.sram_writes;
            sc.node_contrib[static_cast<std::size_t>(
                node.stage_offset + item.ord)] = item.value;
            if (--sc.node_remaining[static_cast<std::size_t>(
                    item.node)] > 0) {
                break;
            }
            double sum = 0.0;
            for (std::int32_t k = 0; k < node.expected; ++k) {
                sum += sc.node_contrib[static_cast<std::size_t>(
                    node.stage_offset + k)];
            }
            FinishReduce(kernel, item, sum,
                         rec.node_base[static_cast<std::size_t>(
                             item.tile)] +
                             node.stage_offset,
                         node.expected, cache, rec);
            break;
          }
          case WorkItem::Kind::kSolveZero:
            FinishReduce(kernel, item, 0.0, 0, 0, cache, rec);
            break;
        }
    }

    SimStats& d = cache.delta;
    d.ops.fmac = rec.fmac;
    d.ops.add = rec.add;
    d.ops.mul = rec.mul;
    d.ops.send = rec.send;
    d.messages = rec.messages;
    d.sram_reads = rec.sram_reads;
    d.sram_writes = rec.sram_writes;
    cache.ready = true;
}

void
FunctionalEngine::ReplayTape(const MatrixKernel& kernel,
                             const KernelCache& cache)
{
    // No zero-fill: every staging slot and value register is written
    // by the tape before any instruction reads it (the recorded walk
    // ordered definitions before uses).
    stage_.resize(static_cast<std::size_t>(cache.stage_size));
    values_.resize(static_cast<std::size_t>(cache.num_values));
    const double* const acc_coeff = cache.acc_coeff.data();
    const std::int32_t* const acc_val = cache.acc_val.data();
    double* const stage = stage_.data();
    double* const values = values_.data();
    const double* const in_vec =
        vecs_[static_cast<std::size_t>(kernel.input_vec)].data();
    double* const out_vec =
        vecs_[static_cast<std::size_t>(kernel.output_vec)].data();
    const double* const rhs_vec =
        cache.has_rhs
            ? vecs_[static_cast<std::size_t>(kernel.rhs_vec)].data()
            : nullptr;

    for (const TapeInstr& in : cache.instrs) {
        switch (in.op) {
          case TapeInstr::Op::kLoadRoot:
            values[in.val] = in_vec[in.dst];
            break;
          case TapeInstr::Op::kAccFold: {
            // The column-task partial: products formed on the fly in
            // ordinal order — bit-identical to staging each product
            // first, since only the addition order matters.
            double sum = 0.0;
            for (std::int32_t k = 0; k < in.b; ++k) {
                sum += acc_coeff[in.a + k] *
                       values[acc_val[in.a + k]];
            }
            stage[in.dst] = sum;
            break;
          }
          case TapeInstr::Op::kFoldForward: {
            double sum = 0.0;
            for (std::int32_t k = 0; k < in.b; ++k) {
                sum += stage[in.a + k];
            }
            stage[in.dst] = sum;
            break;
          }
          case TapeInstr::Op::kFoldOutput: {
            double sum = 0.0;
            for (std::int32_t k = 0; k < in.b; ++k) {
                sum += stage[in.a + k];
            }
            out_vec[in.dst] = sum;
            break;
          }
          case TapeInstr::Op::kFoldSolve: {
            double sum = 0.0;
            for (std::int32_t k = 0; k < in.b; ++k) {
                sum += stage[in.a + k];
            }
            const double r =
                rhs_vec != nullptr ? rhs_vec[in.dst] : 0.0;
            const double x = (r - sum) * in.inv_diag;
            out_vec[in.dst] = x;
            if (in.val >= 0) {
                values[in.val] = x;
            }
            break;
          }
        }
    }
}

void
FunctionalEngine::RunMatrixKernel(const MatrixKernel& kernel)
{
    KernelCache& cache = kernel_cache_[&kernel];
    if (!cache.ready) {
        RecordMatrixKernel(kernel, cache);
    } else {
        ReplayTape(kernel, cache);
    }
    stats_ += cache.delta;
}

// ---------------------------------------------------------------------------
// Vector / scalar / host phases: the shared semantics with no timing.
// Elementwise kernels sweep the whole flat array in one pass —
// per-element results are order-independent, so the flattening cannot
// change bits.
// ---------------------------------------------------------------------------

void
FunctionalEngine::RunElementwise(const VectorKernel& kernel)
{
    stats_ += SweepSlots(kernel, ElementwiseScale(kernel), 0,
                         prog_->vec_tile.size());
}

void
FunctionalEngine::RunDotReduce(const VectorKernel& kernel)
{
    for (std::size_t node = 0; node < scalar_tree_.size(); ++node) {
        stats_ += DotPartialOfNode(kernel, node);
    }
    ChargeBroadcast(FoldDot(kernel));
}

void
FunctionalEngine::RunScalarPhase(const ScalarOp& op)
{
    ChargeBroadcast(phase::Scalar(op, scalar_regs_.data()));
}

void
FunctionalEngine::RunHostPhase(const HostOp& op)
{
    ChargeBroadcast(phase::Host(op, scalar_regs_.data(), scalar_bank_));
}

void
FunctionalEngine::RunIteration()
{
    ExecutionEngine::RunIteration();
    ++clock_;
    ++stats_.cycles;
}

} // namespace azul
