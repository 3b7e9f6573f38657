/**
 * @file
 * Deterministic transient-IO fault injection.
 *
 * The durability layer wraps every disk operation (record append,
 * snapshot write, rename, fsync) in a bounded retry loop. This module
 * decides — purely as a function of (seed, operation id, attempt) —
 * whether a given attempt suffers an injected transient failure.
 *
 * A retry starts at once: wall clock is forbidden in src/
 * (DET-clock), and a retry schedule that depended on real time would
 * break byte-identical replay. The injected-fault realization uses the
 * counter-based substreams from common/random.hh, so it is identical
 * across schedules, thread counts, and recovery replays, as bid-loss
 * faults are.
 *
 * When retries are exhausted the durable store surfaces an IoError
 * Status; the online runtime then degrades exactly like any other
 * resource failure — the FallbackPolicy ladder keeps serving
 * allocations while durability is reported as lost for the epoch.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_IO_FAULTS_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_IO_FAULTS_HH

#include <cstdint>

#include "common/status.hh"

namespace amdahl::durability {

/** Knobs for transient-IO fault injection. */
struct IoFaultOptions
{
    /** Substream seed; independent of the simulation seed so fault
     *  realizations do not perturb market draws. */
    std::uint64_t seed = 0x10fa0175ULL;
    /** Per-attempt failure probability in [0, 1); 0 = no faults. */
    double failureRate = 0.0;
    /** Attempts per operation before giving up (>= 1). */
    int maxRetries = 4;
};

/** @return DomainError when a knob is outside its documented range. */
Status validateIoFaultOptions(const IoFaultOptions &opts);

/**
 * Pure-function fault oracle over (opId, attempt) coordinates.
 *
 * Operation ids are handed out by nextOpId() in issue order; because
 * the durable pipeline performs operations in a deterministic order,
 * the (opId, attempt) coordinates — and therefore the entire fault
 * realization — are reproducible from the seed alone.
 */
class IoFaultInjector
{
  public:
    explicit IoFaultInjector(IoFaultOptions opts) : opts_(opts) {}

    /** @return true when attempt @p attempt (0-based) of operation
     *  @p opId should fail with an injected transient fault. */
    bool injectFailure(std::uint64_t opId, std::uint64_t attempt) const;

    /** @return A fresh operation id (monotonic from 0). */
    std::uint64_t nextOpId() { return nextOp++; }

    /** @return The configured knobs. */
    const IoFaultOptions &options() const { return opts_; }

  private:
    IoFaultOptions opts_;
    std::uint64_t nextOp = 0;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_IO_FAULTS_HH
