#include "thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/parallelism.hh"
#include "obs/metrics.hh"

namespace amdahl::exec {

namespace {

/** Set while the current thread is executing region chunks; nested
 *  parallel constructs run inline instead of re-entering the pool. */
thread_local bool insideRegion = false;

/** Bounded lock-free spin between regions so back-to-back kernel
 *  launches (one per bidding round) skip the condvar wakeup latency. */
constexpr int kSpinIterations = 256;

/**
 * The pool's counter, looked up in the registry (a mutex and a map
 * search) once per process instead of once per region: a registry
 * counter lives as long as the registry, and reset() zeroes it in
 * place. It is created on its first add, so a metrics snapshot lists
 * it only when a run touched it.
 */
obs::Counter &
tasksCounter()
{
    static obs::Counter &c = obs::metrics().counter("exec.tasks");
    return c;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        ++generation_;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

std::size_t
ThreadPool::chunkCount(std::size_t begin, std::size_t end,
                       std::size_t grain)
{
    if (end <= begin)
        return 0;
    if (grain == 0)
        fatal("parallelFor grain must be at least 1");
    return (end - begin + grain - 1) / grain;
}

void
ThreadPool::runSerial(std::size_t begin, std::size_t end,
                      std::size_t grain, const ChunkFn &fn)
{
    for (std::size_t lo = begin; lo < end; lo += grain)
        fn(lo, std::min(end, lo + grain));
}

void
ThreadPool::runChunks(Region &region)
{
    for (;;) {
        const std::size_t i =
            region.nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (i >= region.chunks)
            break;
        // After a failure, remaining chunks are drained unexecuted so
        // the region still completes and the error can be rethrown.
        if (!region.failed.load(std::memory_order_relaxed)) {
            const std::size_t lo = region.begin + i * region.grain;
            const std::size_t hi =
                std::min(region.end, lo + region.grain);
            try {
                (*region.body)(lo, hi);
            } catch (...) {
                std::lock_guard<std::mutex> guard(region.errorMutex);
                if (region.error == nullptr)
                    region.error = std::current_exception();
                region.failed.store(true, std::memory_order_relaxed);
            }
        }
        region.executed.fetch_add(1, std::memory_order_release);
    }
}

void
ThreadPool::ensureWorkers(int wanted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < wanted)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        for (int i = 0; i < kSpinIterations; ++i) {
            if (generationAtomic_.load(std::memory_order_acquire) !=
                seen)
                break;
            std::this_thread::yield();
        }
        Region *region = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            region = current_;
            if (region == nullptr)
                continue;
            ++activeWorkers_;
        }
        insideRegion = true;
        runChunks(*region);
        insideRegion = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
        }
        done_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grain, const ChunkFn &fn)
{
    const std::size_t chunks = chunkCount(begin, end, grain);
    if (chunks == 0)
        return;

    const int threads = exec::threadCount();
    if (threads <= 1 || chunks <= 1 || insideRegion) {
        runSerial(begin, end, grain, fn);
        tasksCounter().add(chunks);
        return;
    }

    // One region at a time; concurrent external submitters queue here.
    std::lock_guard<std::mutex> submit(submitMutex_);
    ensureWorkers(
        std::min<int>(threads - 1, static_cast<int>(chunks) - 1));

    Region region;
    region.begin = begin;
    region.end = end;
    region.grain = grain;
    region.chunks = chunks;
    region.body = &fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        current_ = &region;
        ++generation_;
        generationAtomic_.store(generation_,
                                std::memory_order_release);
    }
    wake_.notify_all();

    insideRegion = true;
    runChunks(region);
    insideRegion = false;

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return region.executed.load(std::memory_order_acquire) ==
                       region.chunks &&
                   activeWorkers_ == 0;
        });
        current_ = nullptr;
    }

    if (region.error != nullptr)
        std::rethrow_exception(region.error);

    tasksCounter().add(chunks);
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const ThreadPool::ChunkFn &fn)
{
    ThreadPool::global().parallelFor(begin, end, grain, fn);
}

} // namespace amdahl::exec
