/**
 * @file
 * Machine core: construction and fault injection. Storage and phase
 * orchestration are shared with the functional engine
 * (execution_engine.cc); the matrix- and vector-phase timing lives in
 * machine_matrix.cc / machine_vector.cc, the generic convergence loop
 * in solver_driver.cc.
 */
#include "sim/machine.h"

#include "sim/observer.h"
#include "sim/sram.h"
#include "util/logging.h"

namespace azul {

Machine::Machine(SimConfig cfg, const SolverProgram* program)
    : ExecutionEngine(std::move(cfg), program),
      noc_(geom_, cfg_.hop_latency)
{
    runs_.resize(static_cast<std::size_t>(geom_.num_tiles()));
    tile_active_.assign(runs_.size(), 0);

    // Host worker pool for the deterministic parallel engine. One
    // lane per worker; serial runs use lanes_[0] only, so both modes
    // execute the identical staged-side-effect code path.
    const std::int32_t threads =
        cfg_.sim_threads < 1 ? 1 : cfg_.sim_threads;
    lanes_.resize(static_cast<std::size_t>(threads));
    if (threads > 1) {
        pool_ = std::make_unique<ThreadPool>(threads);
    }

    // Robustness layer: the injector only exists when enabled, so a
    // fault-free machine takes the exact pre-existing code paths.
    if (cfg_.faults_enabled()) {
        fault_ = std::make_unique<FaultInjector>(
            cfg_.fault_seed, cfg_.fault_rate, cfg_.fault_kinds);
        noc_.SetFaultInjector(fault_.get(),
                              cfg_.fault_retransmit_cycles);
    }
}

void
Machine::ResetLanes()
{
    for (EngineLane& lane : lanes_) {
        lane.stats = SimStats{};
        lane.sends.clear();
        lane.faults.clear();
        lane.tasks_delta = 0;
        lane.issued = 0;
    }
}

void
Machine::LoadProblem(const Vector& b)
{
    ExecutionEngine::LoadProblem(b);
    stats_.tile_ops.assign(runs_.size(), 0);
    noc_.ResetCounters();
}

void
Machine::RunPhase(const Phase& phase)
{
    if (fault_ != nullptr) {
        // The phase counter is the SRAM fault key space: monotonic
        // and never reset, so a replayed phase after a rollback draws
        // fresh decisions instead of re-injecting the same fault.
        ++fault_phase_counter_;
        InjectSramFaults();
    }
    ExecutionEngine::RunPhase(phase);
}

// ---------------------------------------------------------------------------
// Robustness layer
// ---------------------------------------------------------------------------

void
Machine::RecordFault(const FaultEvent& event)
{
    ++stats_.faults_injected;
    switch (event.kind) {
      case FaultKind::kSramFlip: ++stats_.faults_sram; break;
      case FaultKind::kNocDrop: ++stats_.faults_noc_dropped; break;
      case FaultKind::kNocCorrupt:
        ++stats_.faults_noc_corrupted;
        break;
      case FaultKind::kPeStall: ++stats_.faults_pe_stalls; break;
      case FaultKind::kCount: break;
    }
    for (SimObserver* o : observers_) {
        o->OnFaultInjected(event, clock_);
    }
}

void
Machine::DrainNocFaults()
{
    fault_drain_buffer_.clear();
    noc_.DrainFaultEvents(fault_drain_buffer_);
    for (const FaultEvent& ev : fault_drain_buffer_) {
        RecordFault(ev);
    }
}

void
Machine::InjectSramFaults()
{
    // One Bernoulli draw per (phase, tile). The victim word is chosen
    // from the draw: a vector other than b (corrupting the right-hand
    // side would silently redefine the problem — no rollback could
    // recover it), a local slot, and a bit.
    constexpr auto kNumVecs =
        static_cast<std::uint64_t>(VecName::kCount);
    constexpr auto kRhs = static_cast<std::uint64_t>(VecName::kB);
    for (std::int32_t t = 0; t < geom_.num_tiles(); ++t) {
        if (!fault_->Fires(FaultKind::kSramFlip, fault_phase_counter_,
                           static_cast<std::uint64_t>(t))) {
            continue;
        }
        const auto slots =
            static_cast<std::uint64_t>(TileSlots(static_cast<std::size_t>(t)));
        if (slots == 0) {
            continue;
        }
        const std::uint64_t draw = fault_->Draw(
            FaultKind::kSramFlip, fault_phase_counter_,
            static_cast<std::uint64_t>(t));
        std::uint64_t vec = draw % (kNumVecs - 1);
        if (vec >= kRhs) {
            ++vec;
        }
        const std::size_t slot =
            static_cast<std::size_t>(tile_begin_[static_cast<std::size_t>(t)]) +
            static_cast<std::size_t>((draw >> 8) % slots);
        const int bit = static_cast<int>((draw >> 16) % 64);
        auto& word = vecs_[static_cast<std::size_t>(vec)][slot];
        word = CorruptSramWord(word, static_cast<std::uint64_t>(bit));
        RecordFault({FaultKind::kSramFlip, clock_, t, bit});
    }
}

} // namespace azul
