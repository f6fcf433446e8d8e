/**
 * @file
 * The one statement of what every non-matrix phase computes and what
 * it costs in ops and SRAM traffic (the simulator is functional +
 * timing, Sec VI-A). Both engines call these routines: the functional
 * engine once over its flat vectors, the cycle engine once per tile
 * inside its lane sharding, adding only timing on top — sweep cycles,
 * tree arrival times, root latencies, and broadcast link activations.
 * A vector, dot, scalar, host or FP32 rule therefore cannot drift
 * between the engines, and their bit-identity rests on one copy of
 * each rule.
 *
 * Each routine works on a flat slice (raw pointers plus a length) or
 * on the scalar registers, and returns its stats delta. The
 * elementwise sweeps are the inline util/simd.h loops, so there is no
 * per-element indirection.
 */
#ifndef AZUL_SIM_PHASE_SEMANTICS_H_
#define AZUL_SIM_PHASE_SEMANTICS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dataflow/program.h"
#include "sim/sim_stats.h"

namespace azul {

/** Op and SRAM-traffic counts of one phase routine: the delta it
 *  adds to SimStats. */
struct PhaseCost {
    OpCounts ops;
    std::uint64_t messages = 0;
    std::uint64_t sram_reads = 0;
    std::uint64_t sram_writes = 0;
};

inline SimStats&
operator+=(SimStats& stats, const PhaseCost& cost)
{
    stats.ops += cost.ops;
    stats.messages += cost.messages;
    stats.sram_reads += cost.sram_reads;
    stats.sram_writes += cost.sram_writes;
    return stats;
}

namespace phase {

/**
 * Scale of an elementwise kernel: its scalar-bank slot, compile-time
 * constant or scalar register, times scale_sign. kScale with
 * scale_invert takes the guarded reciprocal: a zero divisor yields 0,
 * zeroing the destination (the Arnoldi lucky-breakdown guard,
 * vector_ops_graph.h).
 */
double ElementwiseScale(const VectorKernel& kernel, const double* regs,
                        const double* bank);

/**
 * Runs an elementwise kernel over `n` slots: one op (FMAC for
 * axpy/xpby, add for sub, multiply otherwise) plus two SRAM reads and
 * one write per element. `inv_diag` is read by kDiagScale only.
 */
PhaseCost Elementwise(const VectorKernel& kernel, double scale,
                      double* dst, const double* a, const double* b,
                      const double* inv_diag, std::size_t n);

/** A tile-local dot partial: a[i] * b[i] summed in slot order, one
 *  FMAC and two reads per element. */
PhaseCost DotPartial(const double* a, const double* b, std::size_t n,
                     double& partial);

/** The cross-tile dot: partials folded in ascending scalar-tree node
 *  order. FP addition does not commute, so this order is part of the
 *  determinism contract. */
double FoldPartials(const double* partials, std::size_t n);

/** Work done at the scalar-tree root before a broadcast. */
struct RootWork {
    PhaseCost cost;
    /** Scalars broadcast down the tree afterwards. */
    int broadcast_values = 1;
    /** FP divides and square roots, and multiplies, at the root: what
     *  the cycle engine prices as root latency. */
    int divides = 0;
    int multiplies = 0;
};

/**
 * Root post-ops of a dot: optional sqrt (norms), the register write
 * (suppressed for dot_out == kCount) and the scalar-bank landing
 * slot, an optional quotient against `div_num`, and an optional copy
 * of the raw dot. Each written scalar is one broadcast value (at
 * least one).
 */
RootWork DotRoot(const VectorKernel& kernel, double dot, double* regs,
                 double* bank);

/** A register-file operation at the root, broadcast as one value. */
RootWork Scalar(const ScalarOp& op, double* regs);

/**
 * A host epilogue against the scalar bank, one serial FP64 routine
 * for both engines. kGmresLsq: Givens-rotation QR of the (m+1) x m
 * Hessenberg block at `op.h_offset` (column-major, column j at
 * j*(m+1)), right-hand side (beta, 0, ..., 0)^T with beta at
 * `op.beta_offset`; writes the back-substituted y into
 * `op.y_offset`..`op.y_offset + m - 1` and |g(m)|, the GMRES residual
 * estimate, into `op.out`. Breakdown-safe: a zero rotation column
 * keeps an identity rotation and a zero diagonal of R yields y_i = 0
 * (that basis vector is zero after kScale's lucky-breakdown guard),
 * so no control flow escapes into the IR. Charges m(m+1) FMACs for
 * the dense work at the root and broadcasts y with the residual
 * estimate (1 + m values).
 */
RootWork Host(const HostOp& op, double* regs, std::vector<double>& bank);

/** Reduce-tree cost: one add, one send and one message per edge. */
PhaseCost ReduceTreeCost(std::uint64_t edges);

/** Broadcast cost: one send and one message per value per edge. */
PhaseCost BroadcastCost(std::uint64_t edges, int values);

/** A vector operand: a slot of the vector bank when `bank` >= 0, the
 *  named vector otherwise. */
struct Operand {
    VecName name = VecName::kX;
    std::int32_t bank = -1;
};

/**
 * The FP32 rule: under PrecisionMode::kFp32 an iteration phase
 * rounds its destination vector through FP32 storage when it ends.
 * Dots, scalar and host phases write only FP64 scalars, and x and b
 * are exempt — they are the FP64 anchors residual recovery reads.
 */
std::optional<Operand> QuantizedOperand(const SolverProgram& prog,
                                        const Phase& phase);

/** Rounds every element through FP32 storage. */
void QuantizeFp32(double* v, std::size_t n);

} // namespace phase
} // namespace azul

#endif // AZUL_SIM_PHASE_SEMANTICS_H_
