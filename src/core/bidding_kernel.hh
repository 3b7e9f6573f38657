/**
 * @file
 * Shared internals of proportional-response clearing.
 *
 * There is one round loop (bidding.cc). Each round it turns posted
 * prices into the next round's prices through one of two price
 * exchanges: in process, the bid update plus the direct canonical
 * gather (gatherPrices); sharded, the epoch-barrier protocol over the
 * simulated network (ShardedExchange, bidding_sharded.cc). Everything
 * else — validation, initial bids, the kernel and its cache, loss
 * masks, convergence, anytime deadlines, finalization — exists once,
 * in the loop, so the fault-free determinism bridge between the two
 * exchanges (DESIGN.md §14) holds by construction wherever the
 * exchanges agree. This header holds what both exchanges share: the
 * structure-of-arrays view, the bid update, the price accumulation,
 * the kernel cache, and the exchange declaration.
 *
 * ## The blocked canonical price fold
 *
 * Per-server price sums are defined as a left fold over fixed-size
 * *price blocks* of kPriceBlockUsers consecutive users: block b's
 * partial on server j is the front-to-back sum of that block's CSR
 * bid entries, and p_j * C_j = ((0 + part_0) + part_1) + ... in
 * block order. The block size is a constant — never derived from the
 * shard or thread count — so the addition tree is a function of the
 * market alone. A shard owns whole blocks and ships per-(server,
 * block) partials; the coordinator folds a dense block x server
 * table. Zero-valued partials (blocks absent on a server) are
 * bitwise no-ops under IEEE addition (x + 0.0 == x for the
 * non-negative partials bids produce), so the streaming in-process
 * fold over present blocks and the dense table fold over all blocks
 * agree bit for bit — at any shard count, including the legacy
 * single-fold result for markets of at most one block. The same
 * argument lets a shard leave its zero partials off the wire: every
 * aggregate covers all of its shard's blocks, so the coordinator
 * zeroes those rows and writes what arrived (applyShardBid), and the
 * table it folds is the dense one cell for cell.
 */

#ifndef AMDAHL_CORE_BIDDING_KERNEL_HH
#define AMDAHL_CORE_BIDDING_KERNEL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "core/amdahl.hh"
#include "core/bidding.hh"
#include "exec/thread_pool.hh"
#include "net/options.hh"
#include "net/transport.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace amdahl::core::detail {

/** Users per parallelFor chunk in the bid-update kernel.
 *  Fixed (never derived from the thread count) so the chunk layout —
 *  and with it exec.tasks — is identical at any thread count. The
 *  update writes only each user's own bid slots, so the grain moves
 *  no result bit; it only sets how many chunks the pool schedules
 *  per round (782 at 10^5 users). Both price exchanges fan out with
 *  it, so their exec.tasks agree. */
constexpr std::size_t kUserGrain = 128;

/** Servers per chunk in the price gather and the delta reduction. */
constexpr std::size_t kServerGrain = 8;

/** Users per canonical price-accumulation block (see file header).
 *  It fixes the price fold's addition tree, so changing it changes
 *  prices; unlike kUserGrain, it is part of the results. */
constexpr std::size_t kPriceBlockUsers = 32;

/** Number of price blocks covering @p userCount users. */
inline std::size_t
priceBlockCount(std::size_t userCount)
{
    return (userCount + kPriceBlockUsers - 1) / kPriceBlockUsers;
}

/**
 * Structure-of-arrays view of one clearing problem.
 *
 * The per-user AoS layout (MarketUser::jobs, JobMatrix) is the right
 * API shape but the wrong iteration shape: the proportional-response
 * inner loop touches three doubles per job and pays a pointer chase
 * per user per field. The kernel flattens every job to one index e in
 * user-major order and keeps each field contiguous. The loop-invariant
 * factor sqrt(f_ij * w_ij) of the propensity U_ij = sqrt(f w p) s(x)
 * is hoisted here, once per clearing — the per-round kernel multiplies
 * it by sqrt(p_j), which is exactly the factorization updateUserBids
 * uses, so kernel bids match the reference function bit for bit.
 *
 * Prices are gathered server-major through a CSR index
 * (serverJobOffset/serverJobIds). Flat job ids are user-major, so each
 * server's id list is increasing in (user, job) order — within a price
 * block, summing it front to back performs the *same sequence of
 * additions* as the legacy user-major scatter did; across blocks the
 * canonical left fold takes over (see the file header for the full
 * determinism argument, DESIGN.md §11/§14).
 *
 * Per-job index arrays (server, serverJobIds, entryBlock) are 32-bit:
 * the round loop is memory-bound once the market outgrows the cache,
 * and every byte streamed per job per round counts. buildKernel
 * rejects markets whose job or server count overflows 32 bits —
 * 4 * 10^9 jobs is three orders of magnitude past the scale this
 * repo targets (bench_scaling_users tops out at 10^6 users).
 */
struct BidKernel
{
    std::size_t userCount = 0;
    std::size_t serverCount = 0;
    std::size_t jobCount = 0;

    std::vector<std::size_t> userOffset; // userCount + 1
    std::vector<double> budget;          // per user

    // Per flat job, user-major.
    std::vector<std::uint32_t> server;
    std::vector<double> fraction;        // f_ij
    std::vector<double> sqrtFw;          // sqrt(f_ij * w_ij), hoisted
    std::vector<double> bids;            // b_ij, the iterated state
    std::vector<double> scratch;         // unnormalized propensities

    // Server-major CSR over flat job ids (increasing within a server).
    std::vector<std::size_t> serverJobOffset; // serverCount + 1
    std::vector<std::uint32_t> serverJobIds;
    // Per CSR entry, the price block of the job's user, so the gather
    // reads block ids in the order it streams serverJobIds.
    std::vector<std::uint32_t> entryBlock;

    std::vector<double> capacity; // per server
};

inline BidKernel
buildKernel(const FisherMarket &market)
{
    BidKernel kernel;
    kernel.userCount = market.userCount();
    kernel.serverCount = market.serverCount();

    kernel.userOffset.reserve(kernel.userCount + 1);
    kernel.userOffset.push_back(0);
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        kernel.userOffset.push_back(kernel.userOffset.back() +
                                    market.user(i).jobs.size());
    }
    kernel.jobCount = kernel.userOffset.back();
    ensure(kernel.jobCount < UINT32_MAX &&
               kernel.serverCount < UINT32_MAX,
           "market exceeds the kernel's 32-bit job/server id range");

    kernel.budget.resize(kernel.userCount);
    kernel.server.resize(kernel.jobCount);
    kernel.fraction.resize(kernel.jobCount);
    kernel.sqrtFw.resize(kernel.jobCount);
    kernel.bids.assign(kernel.jobCount, 0.0);
    kernel.scratch.assign(kernel.jobCount, 0.0);
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const auto &user = market.user(i);
        kernel.budget[i] = user.budget;
        std::size_t e = kernel.userOffset[i];
        for (const auto &job : user.jobs) {
            kernel.server[e] = static_cast<std::uint32_t>(job.server);
            kernel.fraction[e] = job.parallelFraction;
            kernel.sqrtFw[e] =
                std::sqrt(job.parallelFraction * job.weight);
            ++e;
        }
    }

    kernel.capacity.resize(kernel.serverCount);
    for (std::size_t j = 0; j < kernel.serverCount; ++j)
        kernel.capacity[j] = market.capacity(j);

    // CSR: counting sort of flat job ids by server. Ids come out
    // increasing per server because the fill scans them in order.
    kernel.serverJobOffset.assign(kernel.serverCount + 1, 0);
    for (std::size_t e = 0; e < kernel.jobCount; ++e)
        ++kernel.serverJobOffset[kernel.server[e] + 1];
    for (std::size_t j = 0; j < kernel.serverCount; ++j)
        kernel.serverJobOffset[j + 1] += kernel.serverJobOffset[j];
    kernel.serverJobIds.resize(kernel.jobCount);
    kernel.entryBlock.resize(kernel.jobCount);
    std::vector<std::size_t> cursor(
        kernel.serverJobOffset.begin(),
        kernel.serverJobOffset.end() - 1);
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const auto block = static_cast<std::uint32_t>(i / kPriceBlockUsers);
        for (std::size_t e = kernel.userOffset[i];
             e < kernel.userOffset[i + 1]; ++e) {
            const std::size_t slot = cursor[kernel.server[e]]++;
            kernel.serverJobIds[slot] = static_cast<std::uint32_t>(e);
            kernel.entryBlock[slot] = block;
        }
    }

    return kernel;
}

inline void
flattenBids(const JobMatrix &bids, BidKernel &kernel)
{
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        std::copy(bids[i].begin(), bids[i].end(),
                  kernel.bids.begin() +
                      static_cast<std::ptrdiff_t>(kernel.userOffset[i]));
    }
}

inline void
unflattenBids(const BidKernel &kernel, JobMatrix &bids)
{
    bids.resize(kernel.userCount);
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const std::size_t lo = kernel.userOffset[i];
        const std::size_t hi = kernel.userOffset[i + 1];
        bids[i].assign(kernel.bids.begin() +
                           static_cast<std::ptrdiff_t>(lo),
                       kernel.bids.begin() +
                           static_cast<std::ptrdiff_t>(hi));
    }
}

/**
 * Recompute prices from the flat bids: p_j = sum b_ij / C_j via the
 * blocked canonical fold (file header). Parallel over servers; each
 * server streams its CSR entries front to back, closing a block
 * partial whenever the entry's block changes — block ids are
 * non-decreasing along the list because flat ids are user-major. The
 * offsets, ids and entry blocks are all read in order; the bids are
 * the one random read per entry.
 */
inline void
gatherPrices(const BidKernel &kernel, std::vector<double> &prices)
{
    exec::parallelFor(
        0, kernel.serverCount, kServerGrain,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
                double sum = 0.0;
                double part = 0.0;
                std::uint32_t block = 0;
                const std::size_t jb = kernel.serverJobOffset[j];
                const std::size_t je = kernel.serverJobOffset[j + 1];
                for (std::size_t s = jb; s < je; ++s) {
                    if (kernel.entryBlock[s] != block) {
                        sum += part;
                        part = 0.0;
                        block = kernel.entryBlock[s];
                    }
                    part += kernel.bids[kernel.serverJobIds[s]];
                }
                prices[j] = (sum + part) / kernel.capacity[j];
            }
        });
}

/**
 * Fill rows [blockLo, blockHi) of the dense block x server partial
 * table from the kernel's current bids. Row b holds block b's
 * front-to-back partial per server (zero where the block has no jobs
 * on a server). Serial: callers decide the fan-out.
 */
inline void
accumulateBlockPartials(const BidKernel &kernel, std::size_t blockLo,
                        std::size_t blockHi, std::vector<double> &table)
{
    const std::size_t m = kernel.serverCount;
    for (std::size_t b = blockLo; b < blockHi; ++b) {
        double *row = table.data() + b * m;
        std::fill(row, row + m, 0.0);
        const std::size_t uLo = b * kPriceBlockUsers;
        const std::size_t uHi =
            std::min(kernel.userCount, uLo + kPriceBlockUsers);
        // User-major within the block == the CSR order restricted to
        // the block, so these partials match gatherPrices bitwise.
        for (std::size_t e = kernel.userOffset[uLo];
             e < kernel.userOffset[uHi]; ++e)
            row[kernel.server[e]] += kernel.bids[e];
    }
}

/**
 * Apply shard @p s's bid frame to the coordinator's dense
 * block x server table of @p m columns: zero the shard's rows
 * [blockLo[s], blockLo[s + 1]), then write the partials @p bid
 * carries, read straight from the wire. The frame passed decodeFrame,
 * but its indices are still untrusted, so every one is checked before
 * it addresses the table; a mismatch is a protocol bug and panics.
 */
inline void
applyShardBid(const net::Frame &bid, std::size_t s,
              const std::vector<std::size_t> &blockLo, std::size_t m,
              std::vector<double> &table)
{
    ensure(bid.kind == net::MsgKind::Bid, "price frame on shard ", s,
           "'s bid edge");
    ensure(bid.shard == s, "bid aggregate names shard ", bid.shard,
           " on shard ", s, "'s edge");
    const std::size_t lo = blockLo[s];
    const std::size_t hi = blockLo[s + 1];
    std::fill(table.begin() + static_cast<std::ptrdiff_t>(lo * m),
              table.begin() + static_cast<std::ptrdiff_t>(hi * m), 0.0);
    for (std::size_t i = 0; i < bid.count; ++i) {
        const net::BlockPartial p = net::readPartial(bid, i);
        ensure(p.block >= lo && p.block < hi, "shard ", s,
               " sent a partial for block ", p.block, " outside its "
               "blocks [", lo, ", ", hi, ")");
        ensure(p.server < m, "shard ", s, " sent a partial for server ",
               p.server, " of ", m);
        table[p.block * m + p.server] = p.partial;
    }
}

/**
 * Fold the dense partial table into prices: the canonical left fold
 * over each server's occupied blocks, ascending. A block with no job
 * on server j leaves its cell at +0.0, and adding +0.0 to a
 * non-negative sum changes no bit, so this equals the fold over all
 * @p blockCount blocks, zeros included. A server's occupied blocks are
 * the distinct entry blocks along its CSR list, which are
 * non-decreasing (the gatherPrices walk). Same parallel shape as
 * gatherPrices, so exec.tasks agrees between the two exchanges.
 */
inline void
foldPriceTable(const std::vector<double> &table, std::size_t blockCount,
               const BidKernel &kernel, std::vector<double> &prices)
{
    const std::size_t m = kernel.serverCount;
    AMDAHL_ASSERT(table.size() == blockCount * m,
                  "partial table of ", table.size(), " cells for ",
                  blockCount, " blocks x ", m, " servers");
    exec::parallelFor(
        0, m, kServerGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
                double sum = 0.0;
                const std::size_t jb = kernel.serverJobOffset[j];
                const std::size_t je = kernel.serverJobOffset[j + 1];
                for (std::size_t s = jb; s < je; ++s) {
                    const std::uint32_t block = kernel.entryBlock[s];
                    if (s == jb || block != kernel.entryBlock[s - 1])
                        sum += table[block * m + j];
                }
                prices[j] = sum / kernel.capacity[j];
            }
        });
}

/**
 * One proportional-response update for user @p i against @p posted
 * prices, writing the (damped) next bids in place. Bitwise identical
 * to updateUserBids + the solver's damping blend; shared by both
 * price exchanges so they cannot drift apart.
 */
inline void
updateOneUser(BidKernel &kernel, std::size_t i,
              const std::vector<double> &posted, double damping)
{
    const std::size_t lo = kernel.userOffset[i];
    const std::size_t hi = kernel.userOffset[i + 1];
    double total = 0.0;
    for (std::size_t e = lo; e < hi; ++e) {
        const double p = posted[kernel.server[e]];
        double propensity = 0.0;
        if (p > 0.0 && kernel.bids[e] > 0.0) {
            const double x = kernel.bids[e] / p;
            propensity = kernel.sqrtFw[e] * std::sqrt(p) *
                         amdahlSpeedup(kernel.fraction[e], x);
        }
        kernel.scratch[e] = propensity;
        total += propensity;
    }

    if (total <= 0.0) {
        // All propensities vanished (e.g. fully serial jobs): fall
        // back to an even split so the budget is still exhausted.
        const double even =
            kernel.budget[i] / static_cast<double>(hi - lo);
        for (std::size_t e = lo; e < hi; ++e) {
            kernel.bids[e] =
                damping < 1.0
                    ? (1.0 - damping) * kernel.bids[e] + damping * even
                    : even;
        }
        return;
    }
    AMDAHL_CHECK_FINITE(total);
    for (std::size_t e = lo; e < hi; ++e) {
        const double proposal =
            kernel.budget[i] * kernel.scratch[e] / total;
        AMDAHL_CHECK_FINITE(proposal);
        AMDAHL_ASSERT(proposal >= 0.0,
                      "proportional update produced a negative bid ",
                      "for user ", i);
        kernel.bids[e] =
            damping < 1.0
                ? (1.0 - damping) * kernel.bids[e] + damping * proposal
                : proposal;
    }
}

/**
 * Initial bids: warm start when provided, else an even split of each
 * budget (with renormalization and a strict-positivity floor for warm
 * starts — see the budget-conservation contract inline).
 */
inline void
initializeBids(const FisherMarket &market, const BiddingOptions &opts,
               JobMatrix &bids)
{
    const std::size_t n = market.userCount();
    if (!opts.initialBids.empty() && opts.initialBids.size() != n) {
        fatal("warm-start bids have ", opts.initialBids.size(),
              " users, expected ", n);
    }
    bids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &user = market.user(i);
        const double even =
            user.budget / static_cast<double>(user.jobs.size());
        bids[i].assign(user.jobs.size(), even);
        if (opts.initialBids.empty())
            continue;
        const auto &seed = opts.initialBids[i];
        if (seed.size() != user.jobs.size()) {
            fatal("warm-start bids for user ", i, " have ",
                  seed.size(), " jobs, expected ", user.jobs.size());
        }
        double total = 0.0;
        bool usable = true;
        for (double b : seed) {
            if (b < 0.0 || !std::isfinite(b))
                usable = false;
            total += b;
        }
        if (!usable || total <= 0.0)
            continue; // Fall back to the even split.
        for (std::size_t k = 0; k < seed.size(); ++k) {
            // Keep strictly positive bids so the proportional update
            // can move every coordinate.
            bids[i][k] = std::max(1e-12 * user.budget,
                                  user.budget * seed[k] / total);
            AMDAHL_CHECK_FINITE(bids[i][k]);
            AMDAHL_ASSERT(bids[i][k] > 0.0,
                          "warm start produced a non-positive bid ",
                          "for user '", user.name, "' job ", k);
        }
        // Contract: renormalization restores budget exhaustion (Eq.
        // 10) no matter how stale or rescaled the seed bids were; the
        // positivity floor can only inflate the sum by jobs * 1e-12.
        if constexpr (checkedBuild) {
            double renormalized = 0.0;
            for (double b : bids[i])
                renormalized += b;
            AMDAHL_ASSERT(std::abs(renormalized - user.budget) <=
                              1e-9 * user.budget *
                                  static_cast<double>(seed.size() + 1),
                          "warm start broke budget conservation for ",
                          "user '", user.name, "'");
        }
    }
}

} // namespace amdahl::core::detail

namespace amdahl::core {

/**
 * Cross-solve kernel cache for incremental delta re-clearing.
 *
 * An epoch-based deployment re-clears a market whose *structure* (who
 * bids on which server, server capacities) rarely changes between
 * epochs even when *values* (budgets from compensation, f/w from
 * re-profiling) drift. The cache keeps the previous solve's BidKernel;
 * when the structure still matches — decided by exact comparison, not
 * hashing, so reuse can never silently serve stale data — the CSR
 * counting sort and all allocations are skipped and only the rows of
 * users whose values changed are re-derived (including the hoisted
 * sqrt(f w), recomputed with the same expression buildKernel uses).
 * Results are therefore byte-identical with or without the cache; it
 * is a pure structural cache, safe to drop at any time (crash
 * recovery simply rebuilds it).
 */
struct KernelCache
{
    bool valid = false;
    detail::BidKernel kernel;
    /** Per flat job, the weight the cached sqrtFw was derived from
     *  (the kernel itself only stores the product sqrt(f w)). */
    std::vector<double> weight;

    // Telemetry, mirrored into bidding.kernel_* counters.
    std::uint64_t rebuilds = 0;
    std::uint64_t reuses = 0;
    std::uint64_t patchedUsers = 0;
};

namespace detail {

/** @return true when @p kernel's structure matches @p market exactly:
 *  same shape, same job→server edges, same capacities. */
inline bool
kernelStructureMatches(const BidKernel &kernel,
                       const FisherMarket &market)
{
    if (kernel.userCount != market.userCount() ||
        kernel.serverCount != market.serverCount())
        return false;
    for (std::size_t j = 0; j < kernel.serverCount; ++j) {
        if (kernel.capacity[j] != market.capacity(j))
            return false;
    }
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const auto &jobs = market.user(i).jobs;
        if (kernel.userOffset[i + 1] - kernel.userOffset[i] !=
            jobs.size())
            return false;
        std::size_t e = kernel.userOffset[i];
        for (const auto &job : jobs) {
            if (kernel.server[e] != job.server)
                return false;
            ++e;
        }
    }
    return true;
}

/**
 * The kernel for this solve: a fresh build into @p local when no cache
 * is supplied, otherwise the cached kernel — rebuilt on structural
 * mismatch, row-patched where only values moved (see KernelCache).
 */
inline BidKernel &
acquireKernel(const FisherMarket &market, KernelCache *cache,
              BidKernel &local)
{
    if (cache == nullptr) {
        local = buildKernel(market);
        return local;
    }
    auto &reg = obs::metrics();
    if (!cache->valid || !kernelStructureMatches(cache->kernel, market)) {
        cache->kernel = buildKernel(market);
        cache->weight.resize(cache->kernel.jobCount);
        for (std::size_t i = 0; i < cache->kernel.userCount; ++i) {
            std::size_t e = cache->kernel.userOffset[i];
            for (const auto &job : market.user(i).jobs)
                cache->weight[e++] = job.weight;
        }
        cache->valid = true;
        ++cache->rebuilds;
        reg.counter("bidding.kernel_rebuilds").add();
        return cache->kernel;
    }

    ++cache->reuses;
    reg.counter("bidding.kernel_reuses").add();
    BidKernel &kernel = cache->kernel;
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const auto &user = market.user(i);
        bool changed = kernel.budget[i] != user.budget;
        std::size_t e = kernel.userOffset[i];
        for (const auto &job : user.jobs) {
            changed = changed ||
                      kernel.fraction[e] != job.parallelFraction ||
                      cache->weight[e] != job.weight;
            ++e;
        }
        if (!changed)
            continue;
        kernel.budget[i] = user.budget;
        e = kernel.userOffset[i];
        for (const auto &job : user.jobs) {
            kernel.fraction[e] = job.parallelFraction;
            cache->weight[e] = job.weight;
            kernel.sqrtFw[e] =
                std::sqrt(job.parallelFraction * job.weight);
            ++e;
        }
        ++cache->patchedUsers;
        reg.counter("bidding.kernel_patched_users").add();
    }
    return kernel;
}

/**
 * The sharded price exchange (bidding_sharded.cc, DESIGN.md §14): the
 * step the round loop runs instead of the in-process bid update and
 * gatherPrices when clearing is sharded. It owns the shard layout, the
 * transport and its session, the coordinator's block x server partial
 * table, the retransmit timers, the critical-path attribution and the
 * degraded-round bookkeeping; the loop owns everything else.
 */
class ShardedExchange
{
  public:
    /** What one exchange round produced. */
    struct Round
    {
        /** Every shard's aggregate for this round arrived, so the new
         *  prices are consistent with the bids (a stale round is
         *  neither a convergence nor an anytime candidate). */
        bool fresh = true;
        /** The usable quorum fell below the floor: the solve aborts,
         *  and no new prices were produced. */
        bool collapsed = false;
    };

    /** Validated options only; @p kernel holds the initial bids and
     *  @p stats receives the network diagnostics as rounds run. A
     *  null @p session gets a throwaway starting at tick 0, round 0. */
    ShardedExchange(BidKernel &kernel, double damping,
                    const net::ShardedOptions &sharded,
                    net::NetSession *session, NetOutcomeStats &stats);
    ShardedExchange(const ShardedExchange &) = delete;
    ShardedExchange &operator=(const ShardedExchange &) = delete;

    /**
     * Round @p it: broadcast @p posted, run the virtual-time barrier
     * (each shard updates its users' bids in the kernel, skipping
     * users @p lost marks; empty = none), and fold the coordinator's
     * table into @p newPrices. Emits the round's barrier, compute and
     * fold spans — and, on a collapse, the round span.
     */
    Round round(int it, const std::vector<double> &posted,
                const std::vector<unsigned char> &lost,
                std::vector<double> &newPrices);

    /** The last round's span; the loop emits it after bidding_iter. */
    void emitRoundSpan() const;

    /** Close the solve: minQuorum into the stats, and the session's
     *  clock and global round past the @p iterations run. */
    void finish(int iterations);

  private:
    /** A pending shard retransmission (driver-side timer). */
    struct RetransmitTimer
    {
        net::Ticks tick = 0;
        std::size_t shard = 0;
        std::uint64_t round = 0; ///< Global round of the resent bid.
        std::uint32_t attempt = 0;
    };

    /** Deterministic min-timer: index of the smallest (tick, shard,
     *  attempt), or -1 when none is pending. */
    int nextTimer() const;
    void sendShardBid(std::size_t s, std::uint64_t forRound,
                      std::uint64_t partitionRound, net::Ticks at);

    BidKernel &kernel;
    const double damping;
    const net::ShardedOptions &sharded;
    NetOutcomeStats &stats;
    const std::size_t n;
    const std::size_t m;
    // Per-phase timers, looked up once per solve; null while timing
    // is off.
    obs::Histogram *const updateHist;
    obs::Histogram *const pricesHist;

    // Shard layout: contiguous whole price blocks per shard, so shard
    // boundaries coincide with canonical fold boundaries and the
    // shard count can never perturb a partial. Effective shard count
    // is clamped to the block count (a 40-user market has at most two
    // shards no matter what was asked for).
    const std::size_t blockCount;
    const std::size_t S;
    std::vector<std::size_t> blockLo;
    std::vector<std::uint32_t> shardOf;

    // Transport plumbing. The session persists across epochs (and
    // crashes); a null session gets a solve-local throwaway.
    net::NetSession localSession;
    net::NetSession *const sess;
    const std::uint64_t base;
    net::VirtualClock clock;
    const net::NetFaultModel model;
    net::NetInstruments instStorage;
    const net::NetInstruments *const inst;
    net::VirtualTransport transport;

    // Span tracing: resolved once per solve (the CLI flips the switch
    // before clearing starts). Null is the entire disabled path.
    obs::TraceSink *const spans;

    // Coordinator state: the dense partial table, seeded from the
    // initial bids (every shard "fresh as of round base - 1"). The
    // scratch table is the *shard-side* staging area: a shard
    // recomputes its rows there and ships their nonzero cells as a
    // bid frame (applied by applyShardBid), kept in lastBid for its
    // retransmits; the coordinator's table only changes when a frame
    // is actually delivered — a lost aggregate leaves the coordinator
    // genuinely stale.
    std::vector<double> table;
    std::vector<double> scratch;
    std::vector<std::int64_t> lastApplied;    // coordinator
    std::vector<std::int64_t> lastPriceRound; // shard-side
    std::vector<net::Ticks> priceTickLatest;
    std::vector<std::vector<double>> postedPrices;
    std::vector<std::string> lastBid;
    std::vector<std::vector<std::size_t>> cells; // per shard, ascending
    net::SeqFilter seen;
    std::vector<RetransmitTimer> timers;
    std::vector<unsigned char> batched; // per shard: in the running batch
    std::vector<double> dampShard;

    const std::uint64_t quorumMin;
    std::uint64_t minQuorum;

    // The last round's span coordinates and critical-path attribution,
    // kept for the round span emitted after the loop's bidding_iter.
    std::uint64_t g = 0;
    std::uint64_t roundParent = 0;
    std::uint64_t roundId = 0;
    net::Ticks T = 0;
    net::Ticks roundEnd = 0;
    bool roundFresh = true;
    std::size_t closerShard = 0;
    net::Ticks cDelay = 0;
    net::Ticks cRetransmit = 0;
    net::Ticks cPartition = 0;
    net::Ticks cQuorum = 0;
};

} // namespace detail
} // namespace amdahl::core

#endif // AMDAHL_CORE_BIDDING_KERNEL_HH
