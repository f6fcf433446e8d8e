/**
 * @file
 * Matrix-kernel engine: message-driven execution of compiled SpMV /
 * SpTRSV task graphs (Sec IV-A, V-A) — task activation, per-tile
 * issue, and the kernel main loop.
 *
 * Each simulated cycle is an epoch with three strictly ordered
 * stages, all coordinated by the calling thread:
 *
 *   1. deliver  — NoC messages arriving this cycle activate tasks
 *                 (coordinator only);
 *   2. tick     — every active tile issues ops for this cycle. Tiles
 *                 are independent within the stage (the kernel
 *                 builder homes every slot a tile touches on that
 *                 tile), so with cfg.sim_threads > 1 the active list
 *                 is sharded across the worker pool. All shared side
 *                 effects are staged in per-worker EngineLanes;
 *   3. fold     — the coordinator flushes staged NoC injections in
 *                 active-list position order (reproducing the serial
 *                 engine's FCFS injection order bit for bit), sums
 *                 issue counts, and notifies observers.
 *
 * The parallel engine is therefore bit-identical to the serial one at
 * every thread count; tests/test_parallel_sim.cc enforces this.
 */
#include <algorithm>

#include "sim/machine.h"
#include "sim/observer.h"
#include "util/logging.h"

namespace azul {

void
Machine::ActivateTask(std::int32_t tile, RuntimeTask task,
                      EngineLane& lane)
{
    TileRun& run = runs_[static_cast<std::size_t>(tile)];
    // Occupancy including the incoming message: the buffer holds at
    // most msg_buffer_entries tasks; this arrival spills if it would
    // exceed that.
    if (static_cast<std::int32_t>(run.contexts.size() +
                                  run.pending.size()) +
            1 >
        cfg_.msg_buffer_entries) {
        // Register buffer overflow: the message spills to Data SRAM
        // (Sec V-A). Charged as extra SRAM traffic.
        ++lane.stats.spilled_messages;
        ++lane.stats.sram_writes;
        ++lane.stats.sram_reads;
    }
    run.pending.push_back(task);
    ++lane.tasks_delta;
    // During a tile pass this is a same-tile activation (solve
    // triggering its multicast), so the tile is already active and
    // the shared active list is never touched concurrently.
    MarkTileActive(tile);
}

void
Machine::StartMatrixKernel(const MatrixKernel& kernel)
{
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        const TileKernel& tk =
            kernel.tiles[static_cast<std::size_t>(t)];
        TileRun& run = runs_[static_cast<std::size_t>(t)];
        run.contexts.clear();
        run.pending.clear();
        // The staging buffers (acc_contrib / node_contrib) and the
        // write-only acc_value are resized without a zero fill: the
        // build-time ordinals are a bijection onto [0, expected), so
        // every staged slot is written before the fold that reads it.
        // The busy timestamps and node_acc DO need zeroing — busy is
        // compared against the monotonic clock before the first write,
        // and zero-expected solve roots read node_acc unwritten.
        run.acc_value.resize(tk.accums.size());
        run.acc_remaining.resize(tk.accums.size());
        for (std::size_t a = 0; a < tk.accums.size(); ++a) {
            run.acc_remaining[a] = tk.accums[a].expected;
        }
        run.acc_busy.assign(tk.accums.size(), 0);
        run.acc_contrib.resize(
            static_cast<std::size_t>(tk.acc_stage_size));
        run.node_acc.assign(tk.nodes.size(), 0.0);
        run.node_remaining.resize(tk.nodes.size());
        for (std::size_t nd = 0; nd < tk.nodes.size(); ++nd) {
            run.node_remaining[nd] = tk.nodes[nd].expected;
        }
        run.node_busy.assign(tk.nodes.size(), 0);
        run.node_contrib.resize(
            static_cast<std::size_t>(tk.node_stage_size));
        run.pe_busy_until = 0;
    }
    // Fire initial nodes.
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        const TileKernel& tk =
            kernel.tiles[static_cast<std::size_t>(t)];
        for (NodeId n : tk.initial_nodes) {
            const NodeDesc& node =
                tk.nodes[static_cast<std::size_t>(n)];
            RuntimeTask task;
            task.node = n;
            if (node.kind == NodeKind::kMulticast) {
                task.kind = RuntimeTask::Kind::kMulticastDeliver;
                task.value =
                    ReadSlot(kernel.input_vec, node.source_slot);
                ++lanes_[0].stats.sram_reads;
            } else {
                // Reduce root with no contributions: go straight to
                // the solve stage.
                task.kind = RuntimeTask::Kind::kReduceArrival;
                task.progress = 1;
            }
            ActivateTask(t, task, lanes_[0]);
        }
    }
}

void
Machine::DeliverMessage(const MatrixKernel& kernel, std::int32_t tile,
                        const Message& msg)
{
    const NodeDesc& node =
        kernel.tiles[static_cast<std::size_t>(tile)]
            .nodes[static_cast<std::size_t>(msg.dest_node)];
    RuntimeTask task;
    task.node = msg.dest_node;
    task.value = msg.value;
    task.ord = msg.ord;
    task.kind = node.kind == NodeKind::kMulticast
                    ? RuntimeTask::Kind::kMulticastDeliver
                    : RuntimeTask::Kind::kReduceArrival;
    ActivateTask(tile, task, lanes_[0]);
}

bool
Machine::TryIssue(const MatrixKernel& kernel, std::int32_t tile,
                  RuntimeTask& task, Cycle now, bool& completed,
                  EngineLane& lane)
{
    const bool ideal = cfg_.pe_model == PeModel::kIdeal;
    const Cycle lat =
        ideal ? 1 : static_cast<Cycle>(cfg_.fmac_latency) +
                        static_cast<Cycle>(cfg_.sram_latency);
    const TileKernel& tk = kernel.tiles[static_cast<std::size_t>(tile)];
    TileRun& run = runs_[static_cast<std::size_t>(tile)];
    completed = false;

    if (task.kind == RuntimeTask::Kind::kMulticastDeliver) {
        const NodeDesc& node =
            tk.nodes[static_cast<std::size_t>(task.node)];
        const auto num_children =
            static_cast<std::int32_t>(node.children.size());
        if (task.progress < num_children) {
            // Forward to the next child in the tree.
            const NodeRef& child =
                node.children[static_cast<std::size_t>(task.progress)];
            lane.stats.ops.Count(OpKind::kSend);
            ++lane.stats.sram_reads;
            ++lane.stats.messages;
            lane.sends.push_back(PendingSend{
                now + 1, tile,
                Message{child.tile, child.node, task.value}});
            ++task.progress;
            completed =
                task.progress == num_children && node.num_ops == 0;
            return true;
        }
        // Column-task FMAC.
        const std::int32_t j = task.progress - num_children;
        AZUL_CHECK(j < node.num_ops);
        const ColumnOp& op =
            tk.ops[static_cast<std::size_t>(node.first_op + j)];
        if (!ideal &&
            run.acc_busy[static_cast<std::size_t>(op.acc)] > now) {
            return false; // RAW hazard on the accumulator
        }
        lane.stats.ops.Count(OpKind::kFmac);
        lane.stats.sram_reads += 2; // nonzero + accumulator
        ++lane.stats.sram_writes;
        const AccumDesc& acc =
            tk.accums[static_cast<std::size_t>(op.acc)];
        // Stage the product at its static ordinal; the partial sum is
        // folded in ordinal order on completion, so the FP64 result
        // is independent of issue order (docs/SIMULATOR.md,
        // "Determinism contract"). Timing is unchanged: the
        // accumulator is busy for the same FMAC latency.
        run.acc_contrib[static_cast<std::size_t>(acc.stage_offset +
                                                 op.acc_ord)] =
            op.coeff * task.value;
        run.acc_busy[static_cast<std::size_t>(op.acc)] = now + lat;
        if (--run.acc_remaining[static_cast<std::size_t>(op.acc)] ==
            0) {
            double sum = 0.0;
            for (std::int32_t k = 0; k < acc.expected; ++k) {
                sum += run.acc_contrib[static_cast<std::size_t>(
                    acc.stage_offset + k)];
            }
            run.acc_value[static_cast<std::size_t>(op.acc)] = sum;
            // Deliver the finished partial sum: the send is fused
            // into the final FMAC's writeback stage.
            ++lane.stats.messages;
            lane.sends.push_back(PendingSend{
                now + lat, tile,
                Message{acc.dest.tile, acc.dest.node, sum,
                        acc.dest_ord}});
        }
        ++task.progress;
        completed = task.progress == num_children + node.num_ops;
        return true;
    }

    // kReduceArrival
    const NodeDesc& node = tk.nodes[static_cast<std::size_t>(task.node)];
    if (task.progress == 0) {
        if (!ideal &&
            run.node_busy[static_cast<std::size_t>(task.node)] > now) {
            return false; // previous contribution still in flight
        }
        lane.stats.ops.Count(OpKind::kAdd);
        ++lane.stats.sram_reads;
        ++lane.stats.sram_writes;
        // Stage at the sender's static ordinal; fold in ordinal order
        // once every contribution arrived (see the FMAC site above).
        run.node_contrib[static_cast<std::size_t>(node.stage_offset +
                                                  task.ord)] =
            task.value;
        run.node_busy[static_cast<std::size_t>(task.node)] = now + lat;
        if (--run.node_remaining[static_cast<std::size_t>(task.node)] >
            0) {
            completed = true;
            return true;
        }
        double sum = 0.0;
        for (std::int32_t k = 0; k < node.expected; ++k) {
            sum += run.node_contrib[static_cast<std::size_t>(
                node.stage_offset + k)];
        }
        run.node_acc[static_cast<std::size_t>(task.node)] = sum;
        // All contributions in: forward or finalize.
        if (node.parent.valid()) {
            ++lane.stats.messages;
            lane.sends.push_back(PendingSend{
                now + lat, tile,
                Message{node.parent.tile, node.parent.node, sum,
                        node.parent_ord}});
            completed = true;
            return true;
        }
        if (node.final_action == FinalAction::kWriteOutput) {
            // The reduce root is homed with its output slot, so this
            // write is tile-local.
            WriteSlot(kernel.output_vec, node.slot,
                      run.node_acc[static_cast<std::size_t>(task.node)]);
            ++lane.stats.sram_writes;
            completed = true;
            return true;
        }
        AZUL_CHECK(node.final_action == FinalAction::kSolve);
        task.progress = 1; // continue with the solve Mul
        return true;
    }

    // Solve stage: x = (rhs - acc) * inv_diag.
    AZUL_CHECK(task.progress == 1);
    if (!ideal &&
        run.node_busy[static_cast<std::size_t>(task.node)] > now) {
        return false; // wait for the final Add's result
    }
    lane.stats.ops.Count(OpKind::kMul);
    lane.stats.sram_reads += 2; // rhs + 1/diag
    ++lane.stats.sram_writes;
    const double rhs = kernel.rhs_vec == VecName::kCount
                           ? 0.0
                           : ReadSlot(kernel.rhs_vec, node.slot);
    const double x =
        (rhs - run.node_acc[static_cast<std::size_t>(task.node)]) *
        kernel.inv_diag[static_cast<std::size_t>(node.slot)];
    WriteSlot(kernel.output_vec, node.slot, x);
    if (node.trigger_node != -1) {
        RuntimeTask mc;
        mc.kind = RuntimeTask::Kind::kMulticastDeliver;
        mc.node = node.trigger_node;
        mc.value = x;
        ActivateTask(tile, mc, lane);
    }
    completed = true;
    return true;
}

int
Machine::TickTile(const MatrixKernel& kernel, std::int32_t tile,
                  Cycle now, EngineLane& lane)
{
    TileRun& run = runs_[static_cast<std::size_t>(tile)];
    const std::int32_t max_contexts =
        cfg_.multithreading ? cfg_.num_contexts : 1;
    while (static_cast<std::int32_t>(run.contexts.size()) <
               max_contexts &&
           !run.pending.empty()) {
        run.contexts.push_back(run.pending.front());
        run.pending.pop_front();
    }
    if (run.contexts.empty()) {
        return 0;
    }

    if (cfg_.pe_model == PeModel::kIdeal) {
        // Unbounded issue width, no hazards: drain everything that
        // can run this cycle.
        int issued = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t c = 0; c < run.contexts.size();) {
                bool completed = false;
                if (TryIssue(kernel, tile, run.contexts[c], now,
                             completed, lane)) {
                    ++issued;
                    progress = true;
                }
                if (completed) {
                    run.contexts.erase(run.contexts.begin() +
                                       static_cast<std::ptrdiff_t>(c));
                    --lane.tasks_delta;
                } else {
                    ++c;
                }
            }
            while (static_cast<std::int32_t>(run.contexts.size()) <
                       max_contexts &&
                   !run.pending.empty()) {
                run.contexts.push_back(run.pending.front());
                run.pending.pop_front();
                progress = true;
            }
        }
        if (!stats_.tile_ops.empty()) {
            // Distinct tiles touch distinct elements, so this shared
            // vector is written race-free from concurrent workers.
            stats_.tile_ops[static_cast<std::size_t>(tile)] +=
                static_cast<std::uint64_t>(issued);
        }
        return issued;
    }

    if (fault_ != nullptr &&
        fault_->Fires(FaultKind::kPeStall,
                      static_cast<std::uint64_t>(tile),
                      static_cast<std::uint64_t>(now))) {
        // Transient pipeline hang: timing-only, staged in the lane so
        // the coordinator reports it in deterministic order.
        ApplyPeStall(run,
                     now + static_cast<Cycle>(cfg_.fault_stall_cycles));
        lane.faults.push_back({FaultKind::kPeStall, now, tile,
                               cfg_.fault_stall_cycles});
    }
    if (now < run.pe_busy_until) {
        return 0; // scalar core executing bookkeeping instructions
    }
    for (std::size_t c = 0; c < run.contexts.size(); ++c) {
        bool completed = false;
        if (TryIssue(kernel, tile, run.contexts[c], now, completed,
                     lane)) {
            run.pe_busy_until =
                now + static_cast<Cycle>(IssueCost(cfg_));
            if (!stats_.tile_ops.empty()) {
                ++stats_.tile_ops[static_cast<std::size_t>(tile)];
            }
            if (completed) {
                run.contexts.erase(run.contexts.begin() +
                                   static_cast<std::ptrdiff_t>(c));
                --lane.tasks_delta;
            }
            return 1;
        }
        if (!cfg_.multithreading) {
            break; // single-threaded: blocked on the oldest task
        }
    }
    ++lane.stats.stall_cycles;
    return 0;
}

void
Machine::RunMatrixKernel(const MatrixKernel& kernel)
{
    ResetLanes();
    StartMatrixKernel(kernel);
    outstanding_tasks_ += lanes_[0].tasks_delta;
    lanes_[0].tasks_delta = 0;

    const Cycle start = clock_;
    const std::uint64_t links_before = noc_.link_activations();

    while (outstanding_tasks_ > 0 || !noc_.Empty()) {
        AZUL_CHECK_MSG(clock_ - start < cfg_.max_phase_cycles,
                       "matrix kernel " << kernel.name
                                        << " exceeded the cycle cap");
        // Stage 1: deliveries (coordinator only).
        delivery_buffer_.clear();
        noc_.AdvanceTo(clock_, delivery_buffer_);
        if (fault_ != nullptr) {
            DrainNocFaults(); // drops staged during transport
        }
        for (const Delivery& d : delivery_buffer_) {
            DeliverMessage(kernel, d.msg.dest_tile, d.msg);
        }
        outstanding_tasks_ += lanes_[0].tasks_delta;
        lanes_[0].tasks_delta = 0;

        // Compact the active list. Idle tiles are swap-removed
        // exactly as the serial engine always has, so list order —
        // and with it message injection order — is reproduced.
        for (std::size_t i = 0; i < active_list_.size();) {
            const std::int32_t t = active_list_[i];
            if (!runs_[static_cast<std::size_t>(t)].HasWork()) {
                tile_active_[static_cast<std::size_t>(t)] = 0;
                active_list_[i] = active_list_.back();
                active_list_.pop_back();
            } else {
                ++i;
            }
        }
        const bool any_active = !active_list_.empty();

        // Stage 2: tick every active tile. Workers own contiguous
        // ascending chunks of the active list; each tile's state is
        // touched by exactly one worker.
        if (UseParallel(active_list_.size())) {
            pool_->ParallelFor(
                active_list_.size(),
                [&](int worker, std::size_t begin, std::size_t end) {
                    EngineLane& lane =
                        lanes_[static_cast<std::size_t>(worker)];
                    for (std::size_t i = begin; i < end; ++i) {
                        lane.issued += TickTile(
                            kernel, active_list_[i], clock_, lane);
                    }
                });
        } else {
            EngineLane& lane = lanes_[0];
            for (std::size_t i = 0; i < active_list_.size(); ++i) {
                lane.issued +=
                    TickTile(kernel, active_list_[i], clock_, lane);
            }
        }

        // Stage 3: fold lanes in worker order. Chunks are contiguous
        // and ascending, so this flushes staged sends in active-list
        // position order — the serial injection order.
        int issued_this_cycle = 0;
        for (EngineLane& lane : lanes_) {
            for (const PendingSend& s : lane.sends) {
                noc_.Inject(s.time, s.src_tile, s.msg);
            }
            lane.sends.clear();
            for (const FaultEvent& ev : lane.faults) {
                RecordFault(ev);
            }
            lane.faults.clear();
            issued_this_cycle += static_cast<int>(lane.issued);
            lane.issued = 0;
            outstanding_tasks_ += lane.tasks_delta;
            lane.tasks_delta = 0;
        }
        if (fault_ != nullptr) {
            DrainNocFaults(); // corruptions staged at injection
        }

        if (issue_sample_period_ > 0) {
            const std::size_t bucket = static_cast<std::size_t>(
                (clock_ - start) / issue_sample_period_);
            if (stats_.issue_timeline.size() <= bucket) {
                stats_.issue_timeline.resize(bucket + 1, 0);
            }
            stats_.issue_timeline[bucket] +=
                static_cast<std::uint64_t>(issued_this_cycle);
            stats_.issue_sample_period = issue_sample_period_;
        }
        // Observers fire on the coordinating thread only — the
        // observer layer needs no locking (see observer.h).
        for (SimObserver* o : observers_) {
            o->OnKernelCycle(clock_ - start, issued_this_cycle);
        }

        ++clock_;
        if (!any_active && outstanding_tasks_ == 0 && !noc_.Empty()) {
            clock_ = std::max(clock_, noc_.NextEventTime());
        }
    }

    // Merge per-worker counters; integer adds commute, so the result
    // does not depend on how tiles were distributed over workers.
    for (EngineLane& lane : lanes_) {
        stats_ += lane.stats;
        lane.stats = SimStats{};
    }

    const Cycle elapsed = clock_ - start;
    stats_.cycles += elapsed;
    stats_.class_cycles[static_cast<std::size_t>(kernel.kclass)] +=
        elapsed;
    stats_.link_activations +=
        noc_.link_activations() - links_before;
}

} // namespace azul
