/**
 * @file
 * Lazily-started, reusable thread pool with deterministic parallel
 * constructs.
 *
 * The market's hot loops are embarrassingly parallel (per-user bid
 * updates, per-server price gathers, independent scenario evaluations)
 * but the reproduction's contract is bit-reproducibility: the same
 * seed must yield byte-identical traces, metrics, and allocations at
 * any thread count. The two constructs here are designed around that:
 *
 *  - parallelFor(begin, end, grain, fn): the index range is cut into
 *    fixed chunks of `grain` (the layout depends only on the range and
 *    the grain, never on the thread count) and chunks are claimed by
 *    an atomic ticket. Bodies must write disjoint state per index, so
 *    any claim order produces the same memory contents.
 *
 *  - parallelReduce(begin, end, grain, identity, map, combine): chunk
 *    partials are stored in chunk order and folded by a fixed
 *    balanced binary tree over that order. Floating-point combines
 *    therefore associate identically at every thread count — the
 *    "ordered reduction" determinism argument of DESIGN.md §11.
 *
 * The pool starts no threads until the first region that wants more
 * than one (threadCount() == 1 runs chunks inline, the exact serial
 * instruction stream). Workers spin briefly between regions before
 * blocking so back-to-back kernel launches (one per bidding round)
 * don't pay a wakeup latency. Nested regions run inline on the
 * calling thread — the inner loop of an already-parallel outer loop
 * needs no second fan-out (and must not deadlock the pool).
 *
 * Exceptions thrown by a body are captured and rethrown on the
 * submitting thread after the region drains (first one wins), so
 * contract checks (AMDAHL_ASSERT) fire exactly as they do serially.
 *
 * Telemetry: each region adds its chunk count to the `exec.tasks`
 * counter (deterministic — the layout is thread-count independent).
 * Which thread ran a chunk is not counted: it depends on scheduling,
 * and every registry counter is thread-count independent.
 */

#ifndef AMDAHL_EXEC_THREAD_POOL_HH
#define AMDAHL_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace amdahl::exec {

/** Reusable worker pool; one process-wide instance via global(). */
class ThreadPool
{
  public:
    /** The chunked loop body: called as fn(chunkBegin, chunkEnd). */
    using ChunkFn = std::function<void(std::size_t, std::size_t)>;

    ThreadPool() = default;
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool. Workers are spawned lazily (up to
     * Parallelism's threadCount() - 1) and reused across regions.
     */
    static ThreadPool &global();

    /**
     * Run @p fn over [begin, end) in chunks of @p grain indices.
     *
     * The chunk layout depends only on (begin, end, grain); bodies
     * run concurrently and must write disjoint state per index.
     * Serial when the configured thread count is 1, when the range
     * fits one chunk, or when called from inside another region.
     *
     * @param grain Chunk size in indices (>= 1; fatal otherwise).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     std::size_t grain, const ChunkFn &fn);

    /**
     * Deterministic tree reduction over [begin, end).
     *
     * @param identity Value returned for an empty range.
     * @param map      map(chunkBegin, chunkEnd) -> T, the per-chunk
     *                 partial (computed in parallel).
     * @param combine  combine(T, T) -> T, folded over the chunk
     *                 partials by a fixed balanced binary tree in
     *                 chunk order (serial, cheap — one call per
     *                 chunk). Need not be commutative; the fold order
     *                 is identical at every thread count.
     */
    template <typename T, typename MapFn, typename CombineFn>
    T
    parallelReduce(std::size_t begin, std::size_t end,
                   std::size_t grain, T identity, MapFn &&map,
                   CombineFn &&combine)
    {
        if (end <= begin)
            return identity;
        const std::size_t count = chunkCount(begin, end, grain);
        std::vector<T> parts(count, identity);
        parallelFor(begin, end, grain,
                    [&](std::size_t lo, std::size_t hi) {
                        parts[(lo - begin) / grain] = map(lo, hi);
                    });
        // Balanced binary fold over chunk order: the tree shape is a
        // function of the chunk count alone.
        for (std::size_t stride = 1; stride < count; stride *= 2) {
            for (std::size_t i = 0; i + stride < count;
                 i += 2 * stride)
                parts[i] = combine(parts[i], parts[i + stride]);
        }
        return parts[0];
    }

    /** @return Number of chunks parallelFor would create (the value
     *  `exec.tasks` grows by); depends only on the range and grain. */
    static std::size_t chunkCount(std::size_t begin, std::size_t end,
                                  std::size_t grain);

  private:
    struct Region
    {
        std::size_t begin = 0;
        std::size_t grain = 1;
        std::size_t chunks = 0;
        std::size_t end = 0;
        const ChunkFn *body = nullptr;
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<std::size_t> executed{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex errorMutex;
    };

    void ensureWorkers(int wanted);
    void workerLoop();
    /** Claim and run chunks of @p region until none remain. */
    void runChunks(Region &region);
    void runSerial(std::size_t begin, std::size_t end,
                   std::size_t grain, const ChunkFn &fn);

    std::mutex mutex_;
    /** Serializes whole regions from concurrent external submitters. */
    std::mutex submitMutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    Region *current_ = nullptr;
    std::uint64_t generation_ = 0;
    /** Mirror of generation_ for the lock-free worker spin phase. */
    std::atomic<std::uint64_t> generationAtomic_{0};
    std::size_t activeWorkers_ = 0;
    bool stop_ = false;
};

/**
 * Convenience: ThreadPool::global().parallelFor with the configured
 * thread count. The default entry point for library code.
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const ThreadPool::ChunkFn &fn);

/** Convenience: deterministic reduce on the global pool. */
template <typename T, typename MapFn, typename CombineFn>
T
parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
               T identity, MapFn &&map, CombineFn &&combine)
{
    return ThreadPool::global().parallelReduce(
        begin, end, grain, identity, std::forward<MapFn>(map),
        std::forward<CombineFn>(combine));
}

} // namespace amdahl::exec

#endif // AMDAHL_EXEC_THREAD_POOL_HH
