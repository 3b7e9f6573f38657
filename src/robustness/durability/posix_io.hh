/**
 * @file
 * Fault-aware POSIX file primitives for the durability layer.
 *
 * All durable writes go through raw file descriptors rather than
 * iostreams: the commit protocol needs fsync (data durability),
 * ftruncate (torn-tail repair), and rename (atomic publication), none
 * of which iostreams expose. This module is a designated owner under
 * the TRUST-fio lint rule — the rest of src/ must not open files for
 * writing at all.
 *
 * Every operation runs under IoContext::run: a bounded retry loop that
 * consults the deterministic IoFaultInjector before each attempt and
 * retries at once, without waiting. Real IO errors (ENOSPC, EIO)
 * retry the same way; when attempts are exhausted the IoError Status
 * propagates to the caller, which degrades gracefully instead of
 * crashing.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_POSIX_IO_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_POSIX_IO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.hh"
#include "robustness/durability/io_faults.hh"

namespace amdahl::durability {

/** Cumulative IO bookkeeping for one durable store. */
struct DurabilityCounters
{
    std::uint64_t injectedFaults = 0; //!< Attempts failed by injection.
    std::uint64_t ioRetries = 0;      //!< Attempts after the first.
    std::uint64_t journalAppends = 0;
    std::uint64_t snapshotsWritten = 0;
};

/**
 * Retry harness shared by journal and snapshot IO.
 *
 * Holds the fault injector and the counters; run() gives each logical
 * operation a fresh operation id so the injected-fault realization is
 * a pure function of (seed, issue order).
 */
class IoContext
{
  public:
    IoContext(IoFaultInjector injector, DurabilityCounters *counters)
        : faults(std::move(injector)), counters_(counters)
    {}

    /**
     * Execute @p op with bounded retries.
     *
     * Each attempt first consults the fault injector (an injected
     * fault consumes the attempt without running @p op), then runs
     * @p op; a failed Status from @p op consumes the attempt too, and
     * the next attempt starts at once. After maxRetries attempts the
     * last failure (or a synthesized IoError for an injected fault) is
     * returned.
     *
     * @param what Operation label for diagnostics.
     * @param op   The attempt body; must be safe to re-run (callers
     *             undo partial effects — e.g. truncate a half-written
     *             record — before returning failure).
     */
    Status run(std::string_view what, const std::function<Status()> &op);

    /** @return The cumulative counters. */
    const DurabilityCounters &counters() const { return *counters_; }

  private:
    IoFaultInjector faults;
    DurabilityCounters *counters_;
};

/**
 * RAII file descriptor with Status-returning operations.
 *
 * Move-only; closes on destruction (the destructor ignores close
 * errors — durability decisions are made at fsync time, never close).
 */
class PosixFile
{
  public:
    PosixFile() = default;
    ~PosixFile();
    PosixFile(PosixFile &&other) noexcept;
    PosixFile &operator=(PosixFile &&other) noexcept;
    PosixFile(const PosixFile &) = delete;
    PosixFile &operator=(const PosixFile &) = delete;

    /** Open (or create) @p path for appending. */
    static Result<PosixFile> openAppend(const std::string &path);

    /** Create/truncate @p path for writing. */
    static Result<PosixFile> createTruncate(const std::string &path);

    /** @return true when a descriptor is held. */
    bool isOpen() const { return fd_ >= 0; }

    /** Write all of @p size bytes at the current offset. */
    Status writeAll(const void *data, std::size_t size);

    /** fsync the descriptor. */
    Status sync();

    /** Truncate the file to @p size bytes (offset moves to the end). */
    Status truncate(std::uint64_t size);

    /** @return The current file size in bytes. */
    Result<std::uint64_t> size() const;

    /** Close explicitly; reports the close error (destructor cannot). */
    Status close();

  private:
    explicit PosixFile(int fd) : fd_(fd) {}

    int fd_ = -1;
};

/** Atomically rename @p from to @p to (same filesystem). */
Status renameFile(const std::string &from, const std::string &to);

/** Remove @p path; missing files are not an error. */
Status removeFile(const std::string &path);

/** fsync the directory @p dir so renames/creates in it are durable. */
Status syncDir(const std::string &dir);

/** Read the whole of @p path into a string. */
Result<std::string> readFileBytes(const std::string &path);

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_POSIX_IO_HH
