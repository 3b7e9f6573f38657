/**
 * @file
 * Configuration for sharded clearing over the simulated transport.
 *
 * Two option groups with a sharp contract between them:
 *
 *  - NetFaultOptions describe the *environment* (loss, delay,
 *    duplication, partitions). They change results — that is their
 *    point — but deterministically: realizations are pure functions
 *    of (seed, edge, round, attempt).
 *  - ShardedOptions describe the *protocol* (shard count, barrier
 *    deadline, quorum floor, staleness bound). With all fault rates
 *    zero, none of them may change results: any shard count must
 *    reproduce the in-process kernel byte for byte (the determinism
 *    bridge, enforced by tests/net/test_sharded_bidding.cc).
 *
 * All user-facing validation goes through the Status taxonomy
 * (DomainError for out-of-range values, ParseError for malformed
 * partition specs) so the CLI can surface structured errors.
 */

#ifndef AMDAHL_NET_OPTIONS_HH
#define AMDAHL_NET_OPTIONS_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "net/clock.hh"

namespace amdahl::net {

/**
 * A scheduled bidirectional partition: shard @p shard exchanges no
 * messages with the coordinator (both edges) for global rounds in
 * [fromRound, toRound). Keyed by *global* rounds (NetSession) so a
 * window can span epoch boundaries and replay across crash recovery.
 */
struct PartitionWindow
{
    std::size_t shard = 0;
    std::uint64_t fromRound = 0;
    std::uint64_t toRound = 0;
};

/** Seed-driven stochastic fault environment for the transport. */
struct NetFaultOptions
{
    /** Per-message loss probability on every edge, in [0, 1). */
    double lossRate = 0.0;
    /** Per-message delivery delay, uniform in [delayMin, delayMax] ticks. */
    Ticks delayMin = 0;
    Ticks delayMax = 0;
    /** Probability a delivered message is also duplicated, in [0, 1). */
    double duplicationRate = 0.0;
    /** Root seed for all per-(edge, round, attempt) substreams. */
    std::uint64_t seed = 0;

    /** True when any stochastic fault can actually occur. */
    [[nodiscard]] bool
    stochastic() const
    {
        return lossRate > 0.0 || delayMax > 0 || duplicationRate > 0.0;
    }
};

/**
 * Upper bound on the shard count accepted by validation. The
 * effective count clamps to the market's price-block count anyway;
 * the cap exists so an absurd request (e.g. "-1" wrapped through an
 * unsigned parse) is a structured DomainError instead of a failed
 * session-state allocation.
 */
inline constexpr std::size_t kMaxShards = 1u << 20;

/** Protocol knobs for the epoch-barrier sharded clearing loop. */
struct ShardedOptions
{
    /**
     * Number of user shards; 0 disables sharded clearing entirely
     * (the in-process kernel runs instead). The effective count is
     * clamped to the market's price-block count, so tiny markets
     * never see empty shards.
     */
    std::size_t shards = 0;

    /** Barrier deadline per round, ticks after the price broadcast. */
    Ticks barrierDeadline = 64;

    /**
     * Minimum usable-shard fraction for a degraded round, in (0, 1].
     * A round with fewer than ceil(quorumFloor * shards) usable
     * shards (fresh or within maxStaleRounds) aborts the solve as a
     * quorum collapse, which the FallbackPolicy ladder escalates.
     */
    double quorumFloor = 0.5;

    /**
     * How many rounds a silent shard's last-known bid aggregate may
     * stand in for a fresh one before the shard stops counting
     * toward quorum.
     */
    std::uint64_t maxStaleRounds = 8;

    NetFaultOptions faults;
    std::vector<PartitionWindow> partitions;

    [[nodiscard]] bool enabled() const { return shards > 0; }

    /** True when any fault (stochastic or scheduled) can occur. */
    [[nodiscard]] bool
    faulty() const
    {
        return faults.stochastic() || !partitions.empty();
    }
};

/**
 * Validate every field against its documented domain.
 * @return DomainError naming the offending option on failure.
 */
[[nodiscard]] Status validateShardedOptions(const ShardedOptions &opts);

/**
 * Parse a `--net-partition` spec of the form "shard:from:to"
 * (half-open global-round window [from, to), to > from).
 * @return ParseError on malformed input, DomainError on an empty
 * window.
 */
[[nodiscard]] Result<PartitionWindow>
parsePartitionWindow(std::string_view spec);

/**
 * Parse a `--net-delay` spec: either "max" (uniform in [0, max]) or
 * "min:max" ticks.
 */
[[nodiscard]] Status parseDelaySpec(std::string_view spec,
                                    NetFaultOptions &faults);

} // namespace amdahl::net

#endif // AMDAHL_NET_OPTIONS_HH
