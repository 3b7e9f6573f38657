/**
 * @file
 * Structured trace sink: one JSON object per line (JSONL).
 *
 * The market's offline benches report *aggregates*; when a specific
 * epoch converges slowly, sheds a job, or falls down the fallback
 * ladder, only a per-decision event stream can say why. Instrumented
 * code emits typed events — epoch start/end, per-iteration price
 * residuals, admission and shed decisions, churn and rollback,
 * fallback transitions, deadline expiries — through a process-global
 * sink.
 *
 * Cost model: the sink is disabled (null) by default, and every
 * emission site guards on `traceSink()` — a single atomic pointer
 * load — so the disabled path allocates nothing, formats nothing, and
 * perturbs no result. With a sink installed, events are deterministic
 * functions of the computation: a monotonic sequence number stands in
 * for wall time, so two runs with the same seed produce byte-identical
 * traces (golden-tested).
 *
 * Event schema: every line carries "seq" (monotonic from 1) and "ev"
 * (the event type); remaining fields are per-type. DESIGN.md §10
 * documents the full schema; tools/check_trace_schema.py checks each
 * line of a captured trace against it, and `amdahl_market trace
 * analyze` checks the span events across lines. Both read back what
 * common/json.hh writes.
 */

#ifndef AMDAHL_OBS_TRACE_HH
#define AMDAHL_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.hh"

namespace amdahl::obs {

/**
 * Destination of a trace stream. Install with setTraceSink(); the
 * caller owns both the sink and the stream it wraps, and must
 * uninstall (setTraceSink(nullptr) or TraceGuard) before either dies.
 *
 * Emission is thread-safe (atomic sequence numbers, mutexed writes);
 * byte-identical trace *order* additionally requires that events are
 * emitted from one thread at a time, which the solvers guarantee by
 * tracing only from the submitting thread, never inside pool regions
 * (see src/exec/thread_pool.hh).
 */
class TraceSink
{
  public:
    /** @param os Stream to receive JSONL lines (not owned). */
    explicit TraceSink(std::ostream &os) : os_(&os) {}

    /** @return The next sequence number (monotonic from 1). */
    std::uint64_t
    nextSeq()
    {
        return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Write one complete JSON line (newline appended). */
    void write(const std::string &line);

    /**
     * Flush the underlying stream.
     *
     * @return IoError when the stream entered a failed state — silent
     * trace loss (disk full, EACCES target) must surface to the CLI
     * instead of being swallowed. The failure also latches into
     * status().
     */
    Status flush();

    /**
     * @return The first write/flush failure observed, or Status::ok().
     * Stream badbit/failbit is checked on every write; the status is
     * sticky so a transiently failing sink is still reported at exit.
     */
    Status status() const;

    /** @return Bytes written so far (newlines included). After
     *  resume(), counts continue from the restored offset. */
    std::uint64_t
    bytesWritten() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

    /** @return The last sequence number handed out (0 = none yet). */
    std::uint64_t
    currentSeq() const
    {
        return seq_.load(std::memory_order_relaxed);
    }

    /**
     * Continue an interrupted stream: the next event uses sequence
     * @p seq + 1 and byte accounting starts at @p bytes. Used by crash
     * recovery after truncating the trace file to its durable prefix,
     * so a recovered run's trace is byte-identical to an uninterrupted
     * one.
     */
    void resume(std::uint64_t bytes, std::uint64_t seq);

  private:
    std::ostream *os_;
    mutable std::mutex writeMutex_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint64_t> bytes_{0};
    /** Guarded by writeMutex_; first failure wins. */
    bool failed_ = false;
    std::string failureText_;
};

/** @return The installed sink, or nullptr when tracing is disabled.
 *  Emission sites guard on this — it is the whole disabled path. */
TraceSink *traceSink();

/**
 * Install (or, with nullptr, remove) the process-global sink.
 * Also routes warn()/inform() into the sink as "log" events while
 * installed (stderr behavior unchanged).
 *
 * @return The previously installed sink.
 */
TraceSink *setTraceSink(TraceSink *sink);

/** RAII sink installation for scoped captures (tests, CLI runs). */
class TraceGuard
{
  public:
    explicit TraceGuard(TraceSink &sink)
        : previous_(setTraceSink(&sink))
    {}
    ~TraceGuard() { setTraceSink(previous_); }
    TraceGuard(const TraceGuard &) = delete;
    TraceGuard &operator=(const TraceGuard &) = delete;

  private:
    TraceSink *previous_;
};

/**
 * Builder for one trace event; emits on destruction.
 *
 *     if (auto *sink = obs::traceSink()) {
 *         obs::TraceEvent(*sink, "bidding_iter")
 *             .field("iter", it)
 *             .field("max_delta", delta);
 *     }
 */
class TraceEvent
{
  public:
    TraceEvent(TraceSink &sink, std::string_view event);
    ~TraceEvent();
    TraceEvent(const TraceEvent &) = delete;
    TraceEvent &operator=(const TraceEvent &) = delete;

    TraceEvent &field(std::string_view key, std::string_view value);
    TraceEvent &field(std::string_view key, const char *value);
    TraceEvent &field(std::string_view key, double value);
    TraceEvent &field(std::string_view key, bool value);

    /** Integral fields (int, size_t, uint64_t, ...). */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    TraceEvent &
    field(std::string_view key, T value)
    {
        if constexpr (std::is_signed_v<T>)
            return fieldSigned(key, static_cast<std::int64_t>(value));
        else
            return fieldUnsigned(key,
                                 static_cast<std::uint64_t>(value));
    }

  private:
    TraceEvent &fieldSigned(std::string_view key, std::int64_t value);
    TraceEvent &fieldUnsigned(std::string_view key,
                              std::uint64_t value);
    void appendKey(std::string_view key);

    TraceSink *sink_;
    std::string line_;
};

} // namespace amdahl::obs

#endif // AMDAHL_OBS_TRACE_HH
