/**
 * @file
 * Causal span layer over the JSONL trace sink.
 *
 * A span is one causally-delimited interval of *virtual* time: an
 * epoch, a fallback-ladder rung, a clearing round, its barrier wait,
 * a compute batch, a price fold, or one message transfer (send →
 * delivery) on a transport edge. Spans form a DAG through parent
 * links, so the analyzer (`amdahl_market trace analyze`) can
 * reconstruct the per-round critical path and attribute
 * every tick of round latency to a cause: compute, network delay,
 * retransmit backoff, partition wait, or quorum wait.
 *
 * Determinism contract (same as the rest of src/obs/):
 *  - Span IDs are pure functions of stable coordinates (seed, epoch,
 *    global round, edge, attempt) via the SplitMix64 finalizer —
 *    never a clock read, never a racing counter.
 *  - Begin/end stamps are net::VirtualClock ticks, never wall time.
 *  - Same-seed runs produce byte-identical span streams.
 *
 * Cost model: span tracing is opt-in (`--span-trace`) on top of an
 * installed trace sink. Every emission site guards on spanSink() — a
 * single atomic pointer load, null unless *both* a sink is installed
 * *and* span tracing is enabled — so the disabled path emits nothing
 * and the trace byte stream is identical to a build without spans.
 *
 * Wire schema (one `span` event per *completed* span, emitted once
 * its virtual end tick is known):
 *
 *     {"seq":N,"ev":"span","name":"round","id":u64,"parent":u64,
 *      "t0":ticks,"t1":ticks, ...per-name extras}
 *
 * `parent` 0 marks a root span. DESIGN.md §15 documents the full
 * schema, the ID derivation, and the critical-path algorithm.
 */

#ifndef AMDAHL_OBS_SPAN_HH
#define AMDAHL_OBS_SPAN_HH

#include <cstdint>
#include <string_view>

#include "common/random.hh"
#include "obs/trace.hh"

namespace amdahl::obs {

/**
 * Span kinds double as ID-derivation domains: the kind tag is the
 * first word mixed into spanId(), so an epoch and a round with the
 * same coordinates can never collide.
 */
enum class SpanKind : std::uint64_t
{
    Epoch = 1,
    Rung = 2,
    Round = 3,
    Barrier = 4,
    Compute = 5,
    Fold = 6,
    Xfer = 7,
};

/**
 * Dominant cause of a round's virtual-time latency, written into the
 * round span's "cause" field. A round's per-cause tick breakdown
 * (c_compute, c_delay, c_retransmit, c_partition, c_quorum) always
 * sums exactly to its latency (t1 - t0); the enum names the largest
 * contributor, with zero-latency rounds attributed to compute (the
 * kernel is instantaneous in virtual time, so a zero-tick round is a
 * pure-compute round by construction).
 */
enum class SpanCause
{
    Compute,
    NetDelay,
    Retransmit,
    PartitionWait,
    QuorumWait,
};

/** @return The lowercase wire token for @p cause. */
std::string_view toString(SpanCause cause);

/**
 * Derive a deterministic span ID from a kind tag and up to three
 * coordinate words. Pure SplitMix64 mixing — no clocks, no counters —
 * so the same (kind, a, b, c) yields the same ID in every same-seed
 * run, at any thread or shard count. 0 is reserved for "no parent"
 * (the mix cannot return it: the result is forced odd).
 */
inline std::uint64_t
spanId(SpanKind kind, std::uint64_t a, std::uint64_t b = 0,
       std::uint64_t c = 0)
{
    std::uint64_t h = mix64(static_cast<std::uint64_t>(kind));
    h = mix64(h ^ a);
    h = mix64(h ^ b);
    h = mix64(h ^ c);
    return h | 1u;
}

/**
 * @return The trace sink when span tracing is live, else nullptr.
 * This single relaxed atomic load is the whole disabled path: null
 * whenever no trace sink is installed *or* span tracing is off.
 */
TraceSink *spanSink();

/**
 * Enable or disable span emission (the `--span-trace` switch). The
 * effective sink stays null until a trace sink is also installed.
 *
 * @return The previous enablement.
 */
bool setSpanTracingEnabled(bool enabled);

/** @return Whether span emission is currently requested. */
bool spanTracingEnabled();

/**
 * Current causal parent for spans opened below this point (0 = root).
 * A plain process-global, not thread-local: spans are only ever
 * emitted from the submitting thread (the same single-writer rule the
 * trace sink's byte-identical ordering already relies on).
 */
std::uint64_t currentSpanParent();

/** Set the current causal parent. @return The previous parent. */
std::uint64_t setSpanParent(std::uint64_t id);

/** RAII parent scope: spans emitted inside parent to @p id. */
class SpanParentScope
{
  public:
    explicit SpanParentScope(std::uint64_t id)
        : previous_(setSpanParent(id))
    {}
    ~SpanParentScope() { setSpanParent(previous_); }
    SpanParentScope(const SpanParentScope &) = delete;
    SpanParentScope &operator=(const SpanParentScope &) = delete;

  private:
    std::uint64_t previous_;
};

/**
 * Builder for one completed-span trace event; emits on destruction.
 * Ticks are std::uint64_t (net::Ticks) — obs/ stays below net/ in the
 * layering, so the clock type is not named here.
 *
 *     if (auto *sink = obs::spanSink())
 *         obs::SpanEvent(*sink, "round", id, parent, t0, t1)
 *             .field("round", g)
 *             .field("cause", obs::toString(cause));
 */
class SpanEvent
{
  public:
    SpanEvent(TraceSink &sink, std::string_view name, std::uint64_t id,
              std::uint64_t parent, std::uint64_t t0, std::uint64_t t1)
        : ev_(sink, "span")
    {
        ev_.field("name", name)
            .field("id", id)
            .field("parent", parent)
            .field("t0", t0)
            .field("t1", t1);
    }

    template <typename T>
    SpanEvent &
    field(std::string_view key, T value)
    {
        ev_.field(key, value);
        return *this;
    }

  private:
    TraceEvent ev_;
};

namespace detail {

/** Recompute the effective span sink; called by setTraceSink(). */
void spanOnTraceSinkChanged(TraceSink *sink);

} // namespace detail

} // namespace amdahl::obs

#endif // AMDAHL_OBS_SPAN_HH
