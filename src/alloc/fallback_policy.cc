#include "fallback_policy.hh"

#include <algorithm>

#include "alloc/proportional_share.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"
#include "net/options.hh"
#include "net/session.hh"
#include "obs/degraded.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace amdahl::alloc {

namespace {

/** The damped retry's damping is the primary damping times this. */
constexpr double kRetryDampingFactor = 0.5;

/**
 * Why this serve fell off the primary path, derived from the attempt
 * that failed. The ordering is a severity ladder: a quorum collapse is
 * reported even if a partition also degraded earlier rounds, and a
 * partition beats a plain deadline expiry — the operator wants the
 * strongest cause, not the first one.
 */
obs::DegradedReason
degradeReason(const core::MarketOutcome &outcome)
{
    if (outcome.net.quorumCollapsed)
        return obs::DegradedReason::QuorumFloor;
    if (outcome.net.partitionDegraded)
        return obs::DegradedReason::Partition;
    if (outcome.deadlineExpired || outcome.net.degradedRounds > 0)
        return obs::DegradedReason::DeadlineExpired;
    return obs::DegradedReason::NonConverged;
}

/** Ladder bookkeeping shared by every exit: which rung served, and
 *  why — a counter for aggregates, a trace event for the post-mortem.
 *  A clean primary serve carries reason "none"; every other rung
 *  carries its structured cause and also reports through
 *  obs::recordDegraded so the fallback and barrier layers share one
 *  reason taxonomy. */
void
recordServe(ServeMode mode, const core::MarketOutcome &outcome)
{
    const bool degraded = mode != ServeMode::Primary;
    const obs::DegradedReason reason = degradeReason(outcome);
    obs::metrics()
        .counter(std::string("fallback.serves.") + toString(mode))
        .add();
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "fallback_serve")
            .field("rung", toString(mode))
            .field("reason",
                   degraded ? obs::toString(reason) : "none")
            .field("converged", outcome.converged)
            .field("iterations", outcome.iterations)
            .field("deadline_expired", outcome.deadlineExpired);
    }
    if (degraded) {
        obs::recordDegraded(
            {"fallback", reason,
             static_cast<std::uint64_t>(outcome.iterations),
             outcome.net.minQuorum, outcome.net.staleBidRounds});
    }
}

} // namespace

FallbackPolicy::FallbackPolicy(core::BiddingOptions primary_opts,
                               FallbackOptions fallback)
    : primary(std::move(primary_opts)), fb(fallback)
{
    if (fb.retryMaxIterations < 0)
        fatal("retry iteration budget must be non-negative");
}

AllocationResult
FallbackPolicy::allocate(const core::FisherMarket &market) const
{
    return ladder(market, core::ClearingContext{});
}

AllocationResult
FallbackPolicy::allocate(const core::FisherMarket &market,
                         const core::BidTransportFaults &faults) const
{
    core::ClearingContext ctx;
    ctx.transport = faults;
    return ladder(market, ctx);
}

AllocationResult
FallbackPolicy::allocate(const core::FisherMarket &market,
                         const core::ClearingContext &ctx) const
{
    return ladder(market, ctx);
}

AllocationResult
FallbackPolicy::ladder(const core::FisherMarket &market,
                       const core::ClearingContext &ctx) const
{
    core::BiddingOptions opts = primary;
    opts.transport = ctx.transport;
    // Delta re-clearing plumbing: a mean-field seed starts the bids,
    // and the kernel cache skips the CSR rebuild when the market
    // structure is unchanged. Neither touches the equilibrium
    // contract — the seed changes the trajectory, never the
    // invariants.
    if (ctx.initialBids != nullptr)
        opts.initialBids = *ctx.initialBids;
    opts.kernelCache = ctx.kernelCache;
    const bool sharded = ctx.sharding && ctx.sharding->enabled();

    const auto runSolve = [&](const core::BiddingOptions &o) {
        return sharded ? core::solveShardedBidding(market, o,
                                                   *ctx.sharding,
                                                   ctx.session)
                       : core::solveAmdahlBidding(market, o);
    };

    // Each ladder attempt is one "rung" span: virtual-time stamps
    // from the persistent session clock (0/0 for in-process solves —
    // they are instantaneous in virtual time), parented to the
    // enclosing epoch span, and made the causal parent of the rounds
    // the attempt clears.
    const auto solve = [&](const core::BiddingOptions &o, int rung) {
        obs::TraceSink *const spanTrace = obs::spanSink();
        if (spanTrace == nullptr)
            return runSolve(o);
        const std::uint64_t parent = obs::currentSpanParent();
        const std::uint64_t t0 = ctx.session ? ctx.session->ticks : 0;
        const std::uint64_t id =
            obs::spanId(obs::SpanKind::Rung, parent,
                        static_cast<std::uint64_t>(rung), t0);
        obs::SpanParentScope scope(id);
        auto outcome = runSolve(o);
        const std::uint64_t t1 = ctx.session ? ctx.session->ticks : 0;
        obs::SpanEvent(*spanTrace, "rung", id, parent, t0, t1)
            .field("attempt", rung)
            .field("sharded", sharded)
            .field("converged", outcome.converged);
        return outcome;
    };

    AllocationResult result;
    result.policyName = name();

    // Rung 1: the configured procedure.
    auto attempt = solve(opts, 0);
    if (attempt.converged) {
        result.outcome = std::move(attempt);
        result.cores = core::roundOutcome(market, result.outcome);
        recordServe(result.mode, result.outcome);
        if constexpr (checkedBuild)
            auditAllocation(market, result);
        return result;
    }

    // Rung 2: deadline expiry. The anytime state is budget-feasible
    // by construction, and the deadline fired precisely because the
    // epoch has no time left for a retry — serve it directly.
    if (attempt.deadlineExpired) {
        result.outcome = std::move(attempt);
        result.cores = core::roundOutcome(market, result.outcome);
        result.mode = ServeMode::DeadlineAnytime;
        recordServe(result.mode, result.outcome);
        if constexpr (checkedBuild)
            auditAllocation(market, result);
        return result;
    }

    // Rung 3: damped, warm-started retry. The faulty transport stays
    // in effect — the retry runs over the same degraded network (under
    // sharded clearing the session's global round keeps advancing, so
    // a partition window scheduled across the retry stays in force).
    core::BiddingOptions retry = opts;
    retry.damping =
        std::max(1e-3, opts.damping * kRetryDampingFactor);
    retry.initialBids = attempt.bids;
    if (fb.retryMaxIterations > 0)
        retry.maxIterations = fb.retryMaxIterations;
    const int primary_iterations = attempt.iterations;
    auto retried = solve(retry, 1);
    retried.iterations += primary_iterations;
    if (retried.converged || retried.deadlineExpired) {
        result.outcome = std::move(retried);
        result.cores = core::roundOutcome(market, result.outcome);
        result.mode = retried.converged ? ServeMode::DampedRetry
                                        : ServeMode::DeadlineAnytime;
        recordServe(result.mode, result.outcome);
        if constexpr (checkedBuild)
            auditAllocation(market, result);
        return result;
    }

    // Rung 4: proportional share by entitlement — always feasible and
    // budget-respecting, never efficient. converged stays false: this
    // epoch was *served*, not solved.
    const ProportionalShare entitlement;
    result = entitlement.allocate(market);
    result.policyName = name();
    result.mode = ServeMode::ProportionalFallback;
    result.outcome.iterations = retried.iterations;
    result.outcome.converged = false;
    result.outcome.net = retried.net;
    recordServe(result.mode, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
