/**
 * @file
 * Vector/scalar-phase timing of the cycle engine (the "Vector Ops" of
 * Fig 3/22). Values and op counts come from the shared semantics
 * (phase_semantics.h), called per tile; this file adds only time:
 * sweep cycles, the scalar tree's arrival times, root latencies, and
 * the broadcast's timing and link activations.
 *
 * With cfg.sim_threads > 1 the per-tile work (elementwise sweeps, dot
 * partial sums) is sharded across the worker pool; each tile is
 * processed by exactly one worker and per-worker counters fold in
 * worker order, so results are bit-identical to the serial engine.
 * The cross-tile dot fold and the tree timing sweeps stay on the
 * coordinating thread: their FP accumulation order is part of the
 * determinism contract.
 */
#include <algorithm>

#include "sim/machine.h"

namespace azul {

namespace {

/** Pipeline fill depth: decode + Data SRAM + compute + writeback. */
Cycle
PipelineDepth(const SimConfig& cfg)
{
    return static_cast<Cycle>(1 + cfg.sram_latency + cfg.fmac_latency +
                              1);
}

/** Root latency of scalar work: 4 cycles per FP divide or square
 *  root, 1 per multiply. */
Cycle
RootLatency(const phase::RootWork& root)
{
    return static_cast<Cycle>(4 * root.divides + root.multiplies);
}

} // namespace

template <typename Body>
void
Machine::ForEachItem(std::size_t items, Body&& body)
{
    if (!UseParallel(items)) {
        for (std::size_t i = 0; i < items; ++i) {
            body(i, stats_);
        }
        return;
    }
    pool_->ParallelFor(
        items, [&](int worker, std::size_t begin, std::size_t end) {
            SimStats& sink =
                lanes_[static_cast<std::size_t>(worker)].stats;
            for (std::size_t i = begin; i < end; ++i) {
                body(i, sink);
            }
        });
    for (EngineLane& lane : lanes_) {
        stats_ += lane.stats;
        lane.stats = SimStats{};
    }
}

Cycle
Machine::SweepCycles(Index slots, std::int32_t cost) const
{
    if (cost == 0) {
        return 1;
    }
    // FP32 iteration sweeps stream two packed values per SRAM word;
    // full-precision (fp64, or prologue/recompute) sweeps issue one
    // value per word.
    const std::int32_t vpw =
        fp32_active_ ? cfg_.values_per_word() : 1;
    const Index words = (slots + vpw - 1) / vpw;
    return static_cast<Cycle>(words) * static_cast<Cycle>(cost) +
           PipelineDepth(cfg_);
}

void
Machine::RunElementwise(const VectorKernel& kernel)
{
    const double scale = ElementwiseScale(kernel);
    // Per-tile sweep: touches only the tile's own slots plus `sink`,
    // so distinct tiles run concurrently without races.
    ForEachItem(runs_.size(), [&](std::size_t tile, SimStats& sink) {
        const Index n = TileSlots(tile);
        if (!stats_.tile_ops.empty()) {
            stats_.tile_ops[tile] += static_cast<std::uint64_t>(n);
        }
        sink += SweepSlots(kernel, scale,
                           static_cast<std::size_t>(tile_begin_[tile]),
                           static_cast<std::size_t>(n));
    });
    // Every tile sweeps in parallel; the fullest one sets the time.
    Index max_slots = 0;
    for (std::size_t tile = 0; tile < runs_.size(); ++tile) {
        max_slots = std::max(max_slots, TileSlots(tile));
    }
    AdvanceVectorClock(SweepCycles(max_slots, IssueCost(cfg_)));
}

void
Machine::RunDotReduce(const VectorKernel& kernel)
{
    const std::int32_t cost = IssueCost(cfg_);

    // Local partials, one per tree node (i.e. per tile), each ready
    // after its tile's sweep. The timing scratch lives in the kernel
    // arena — steady-state dot products perform no heap allocation.
    // Every entry is written before it is read, so no zero fill.
    const std::size_t num_nodes = scalar_tree_.size();
    scratch_arena_.Reset();
    Cycle* const done = scratch_arena_.AllocateArray<Cycle>(num_nodes);
    ForEachItem(num_nodes, [&](std::size_t node, SimStats& sink) {
        const auto tile =
            static_cast<std::size_t>(scalar_tree_.tiles[node]);
        const Index n = TileSlots(tile);
        if (!stats_.tile_ops.empty()) {
            stats_.tile_ops[tile] += static_cast<std::uint64_t>(n);
        }
        sink += DotPartialOfNode(kernel, node);
        done[node] = SweepCycles(n, cost);
    });

    // Upward reduction: children precede parents in completion; tree
    // node indices have parents before children, so sweep backwards.
    for (std::size_t ni = num_nodes; ni-- > 0;) {
        for (std::int32_t ci : scalar_tree_children_[ni]) {
            const auto hops = static_cast<std::uint64_t>(
                geom_.HopDistance(
                    scalar_tree_.tiles[static_cast<std::size_t>(ci)],
                    scalar_tree_.tiles[ni]));
            const Cycle arrival =
                done[static_cast<std::size_t>(ci)] + 1 +
                hops * static_cast<Cycle>(cfg_.hop_latency);
            done[ni] = std::max(done[ni], arrival) + 1;
            stats_.link_activations += hops;
        }
    }

    const phase::RootWork root = FoldDot(kernel);
    BroadcastScalars(done[0] + RootLatency(root), root);
}

void
Machine::BroadcastScalars(Cycle root_done, const phase::RootWork& root)
{
    ChargeBroadcast(root);
    const auto values = static_cast<Cycle>(root.broadcast_values);
    const std::size_t num_nodes = scalar_tree_.size();
    // Callers are done with their own arena scratch once root_done is
    // computed, so the arena can be rewound here. down[ci] is written
    // when ci's parent is visited, and parents precede children in
    // node order, so every read hits a written entry.
    scratch_arena_.Reset();
    Cycle* const down = scratch_arena_.AllocateArray<Cycle>(num_nodes);
    down[0] = root_done;
    Cycle finish = root_done;
    for (std::size_t ni = 0; ni < num_nodes; ++ni) {
        for (std::int32_t ci : scalar_tree_children_[ni]) {
            const auto hops = static_cast<std::uint64_t>(
                geom_.HopDistance(
                    scalar_tree_.tiles[ni],
                    scalar_tree_.tiles[static_cast<std::size_t>(ci)]));
            down[static_cast<std::size_t>(ci)] =
                down[ni] + 1 + hops * static_cast<Cycle>(cfg_.hop_latency) +
                (values - 1);
            stats_.link_activations += hops * values;
            finish = std::max(finish,
                              down[static_cast<std::size_t>(ci)]);
        }
    }
    AdvanceVectorClock(finish);
}

void
Machine::RunScalarPhase(const ScalarOp& op)
{
    const phase::RootWork root = phase::Scalar(op, scalar_regs_.data());
    // Even a register copy takes one cycle at the root.
    BroadcastScalars(std::max<Cycle>(1, RootLatency(root)), root);
}

void
Machine::RunHostPhase(const HostOp& op)
{
    const phase::RootWork root =
        phase::Host(op, scalar_regs_.data(), scalar_bank_);
    // Dense O(m^2) arithmetic at the host/root: ~2 FMACs per Givens
    // rotation application plus the back-substitution triangle.
    const auto m = static_cast<Cycle>(op.restart);
    BroadcastScalars(2 * m * (m + 1) + m * (m + 1) / 2, root);
}

} // namespace azul
