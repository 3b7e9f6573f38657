/**
 * @file
 * Deterministic, seed-driven fault injection for the online market.
 *
 * The paper evaluates one-shot allocations on a healthy cluster; a
 * deployed market must keep clearing when servers crash mid-epoch,
 * and bid messages are lost by the distributed (Synchronous)
 * deployment. This module generates a reproducible fault schedule so
 * those scenarios can be simulated, tested, and swept in benches
 * without any nondeterminism: the same options always yield the same
 * crashes and the same message losses.
 *
 * Fault model (epoch granularity, matching the online simulator):
 *
 *  - A server *crashes during* epoch c: it participated in epoch c's
 *    clearing, then failed mid-epoch, so its jobs' progress for epoch
 *    c (plus any uncheckpointed earlier progress) is lost. The server
 *    is excluded from clearings c+1 .. recoverEpoch-1 and rejoins the
 *    market at recoverEpoch.
 *  - Bid-message loss perturbs the proportional-response iteration
 *    (see BiddingOptions::transport); the injector supplies a
 *    distinct deterministic seed per epoch.
 */

#ifndef AMDAHL_ROBUSTNESS_FAULT_INJECTOR_HH
#define AMDAHL_ROBUSTNESS_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace amdahl::robustness {

/** One server outage in the schedule. */
struct CrashEvent
{
    std::size_t server = 0;
    /** The server fails *during* this epoch (it was cleared at its
     *  start; progress made on it this epoch is lost). */
    int crashEpoch = 0;
    /** First epoch the server participates in clearing again. */
    int recoverEpoch = 0;
};

/** Knobs of the deterministic fault schedule. */
struct FaultOptions
{
    /** Master switch; when false no fault is ever injected and the
     *  online simulator's behavior is bit-identical to fault-free
     *  operation. */
    bool enabled = false;

    /** Seed of the fault schedule; independent of the simulation seed
     *  so the arrival stream never shifts when faults are toggled. */
    std::uint64_t seed = 0xfa17'c0deULL;

    /** Per-live-server, per-epoch crash probability. */
    double crashRatePerServerEpoch = 0.0;

    /** Clearings a crashed server misses before rejoining (>= 1). */
    int downEpochs = 2;

    /**
     * Checkpoint interval in epochs (>= 1). Jobs checkpoint their
     * progress every this many epochs; a crash rolls a job back to
     * its last checkpoint. 1 bounds lost work to the crash epoch's
     * own progress.
     */
    int checkpointEpochs = 1;

    /** Per-message bid-update loss probability fed into the bidding
     *  procedure's transport model each epoch (see
     *  BiddingOptions::transport). */
    double bidLossRate = 0.0;

    /**
     * Explicit outage script; when non-empty it replaces the random
     * crash schedule (crashRatePerServerEpoch is ignored). Events must
     * not overlap per server. Used by targeted tests and experiments.
     */
    std::vector<CrashEvent> scriptedCrashes;
};

/**
 * Validate fault options, throwing FatalError on out-of-range knobs.
 * Called by FaultInjector and by OnlineSimulator at construction.
 */
void validateFaultOptions(const FaultOptions &opts);

/**
 * Precomputed fault schedule over a fixed horizon.
 *
 * Construction draws the full crash schedule up front from a private
 * RNG stream; all queries are pure lookups, so two injectors built
 * from the same options always answer identically.
 */
class FaultInjector
{
  public:
    /**
     * @param opts    Fault knobs (validated; fatal on bad ranges).
     * @param servers Number of servers in the cluster.
     * @param epochs  Horizon in epochs; crashes are drawn for
     *                epochs [0, epochs).
     */
    FaultInjector(FaultOptions opts, std::size_t servers, int epochs);

    /** @return The options the schedule was drawn from. */
    const FaultOptions &options() const { return opts_; }

    /** @return The full outage schedule, sorted by crash epoch. */
    const std::vector<CrashEvent> &schedule() const { return events; }

    /** @return Servers failing during @p epoch (cleared, then died). */
    std::vector<std::size_t> crashesDuring(int epoch) const;

    /** @return Servers whose capacity rejoins at @p epoch's clearing. */
    std::vector<std::size_t> recoveriesAt(int epoch) const;

    /** @return Deterministic bid-transport seed for @p epoch. */
    std::uint64_t bidSeed(int epoch) const;

  private:
    FaultOptions opts_;
    std::size_t servers_;
    std::vector<CrashEvent> events;
};

} // namespace amdahl::robustness

#endif // AMDAHL_ROBUSTNESS_FAULT_INJECTOR_HH
