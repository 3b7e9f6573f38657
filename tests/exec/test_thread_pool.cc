/**
 * @file
 * Unit tests for the execution layer: parallelism configuration and
 * the deterministic thread pool.
 *
 * The pool's contract is stronger than "covers every index": chunk
 * layouts and reduction fold orders must be pure functions of the
 * range and grain, never the thread count, so floating-point results
 * are bit-identical at any setting. The tests here exercise that
 * contract directly (exact `==` on doubles throughout) plus the
 * operational corners: nesting, exception propagation, reuse after
 * failure, and the `exec.tasks` counter.
 */

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "exec/parallelism.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"

namespace {

using namespace amdahl;

/** Scoped thread-count override; restores the previous setting. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int n) : previous_(exec::setThreadCount(n)) {}
    ~ThreadGuard() { exec::setThreadCount(previous_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    int previous_;
};

TEST(Parallelism, ParseThreadCount)
{
    EXPECT_EQ(exec::parseThreadCount("1"), 1);
    EXPECT_EQ(exec::parseThreadCount("8"), 8);
    EXPECT_EQ(exec::parseThreadCount("auto"), exec::hardwareThreads());
    EXPECT_EQ(exec::parseThreadCount("0"), exec::hardwareThreads());
    EXPECT_THROW(exec::parseThreadCount("fast"), FatalError);
    EXPECT_THROW(exec::parseThreadCount("-1"), FatalError);
    EXPECT_THROW(exec::parseThreadCount(""), FatalError);
}

TEST(Parallelism, SetThreadCountReturnsPrevious)
{
    const int original = exec::setThreadCount(3);
    EXPECT_EQ(exec::threadCount(), 3);
    EXPECT_EQ(exec::setThreadCount(original), 3);
    EXPECT_EQ(exec::threadCount(), original);
}

TEST(Parallelism, ZeroSelectsHardware)
{
    ThreadGuard guard(0);
    EXPECT_EQ(exec::threadCount(), exec::hardwareThreads());
}

TEST(ThreadPool, ChunkCountDependsOnlyOnRangeAndGrain)
{
    EXPECT_EQ(exec::ThreadPool::chunkCount(0, 0, 4), 0u);
    EXPECT_EQ(exec::ThreadPool::chunkCount(5, 5, 4), 0u);
    EXPECT_EQ(exec::ThreadPool::chunkCount(0, 1, 4), 1u);
    EXPECT_EQ(exec::ThreadPool::chunkCount(0, 8, 4), 2u);
    EXPECT_EQ(exec::ThreadPool::chunkCount(0, 9, 4), 3u);
    EXPECT_EQ(exec::ThreadPool::chunkCount(3, 9, 2), 3u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        ThreadGuard guard(threads);
        constexpr std::size_t n = 1000;
        // Disjoint writes per index: plain ints are safe.
        std::vector<int> visits(n, 0);
        exec::parallelFor(0, n, 7,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  ++visits[i];
                          });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[i], 1) << "index " << i << " at "
                                    << threads << " threads";
    }
}

TEST(ThreadPool, ChunkBoundsFollowTheFixedLayout)
{
    ThreadGuard guard(4);
    std::vector<std::pair<std::size_t, std::size_t>> seen(3);
    exec::parallelFor(2, 9, 3, [&](std::size_t lo, std::size_t hi) {
        seen[(lo - 2) / 3] = {lo, hi};
    });
    EXPECT_EQ(seen[0], (std::pair<std::size_t, std::size_t>{2, 5}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, std::size_t>{5, 8}));
    EXPECT_EQ(seen[2], (std::pair<std::size_t, std::size_t>{8, 9}));
}

TEST(ThreadPool, ReduceSumBitIdenticalAcrossThreadCounts)
{
    // Mixed magnitudes make the sum sensitive to re-association: any
    // change in fold order shows up in the low bits.
    constexpr std::size_t n = 4099;
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = (i % 3 == 0 ? 1e12 : 1.0) *
                    std::sin(static_cast<double>(i) * 0.7 + 0.1);
    }
    auto sumAt = [&](int threads) {
        ThreadGuard guard(threads);
        return exec::parallelReduce(
            std::size_t{0}, n, 32, 0.0,
            [&](std::size_t lo, std::size_t hi) {
                double s = 0.0;
                for (std::size_t i = lo; i < hi; ++i)
                    s += values[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double reference = sumAt(1);
    for (int threads : {2, 4, 8})
        EXPECT_EQ(sumAt(threads), reference)
            << "non-deterministic fold at " << threads << " threads";
}

TEST(ThreadPool, ReduceFoldOrderIsChunkOrder)
{
    // A non-commutative combine exposes the fold sequence: pairing
    // chunks out of order would produce a different nesting string.
    ThreadGuard guard(4);
    auto nest = [&]() {
        return exec::parallelReduce(
            std::size_t{0}, std::size_t{10}, 2, std::string{},
            [](std::size_t lo, std::size_t) {
                return std::to_string(lo / 2);
            },
            [](const std::string &a, const std::string &b) {
                return "(" + a + b + ")";
            });
    };
    const std::string once = nest();
    EXPECT_EQ(once, "(((01)(23))4)") << "tree shape changed";
    EXPECT_EQ(nest(), once);
}

TEST(ThreadPool, ReduceEmptyRangeReturnsIdentity)
{
    ThreadGuard guard(4);
    const double r = exec::parallelReduce(
        std::size_t{5}, std::size_t{5}, 4, -1.5,
        [](std::size_t, std::size_t) { return 99.0; },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(r, -1.5);
}

TEST(ThreadPool, NestedRegionsRunInline)
{
    ThreadGuard guard(4);
    std::vector<int> counts(16, 0);
    exec::parallelFor(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t outer = lo; outer < hi; ++outer) {
            // Must not deadlock the pool or fan out a second time.
            exec::parallelFor(0, 4, 1,
                              [&](std::size_t ilo, std::size_t ihi) {
                                  for (std::size_t j = ilo; j < ihi;
                                       ++j)
                                      ++counts[outer * 4 + j];
                              });
        }
    });
    for (int c : counts)
        EXPECT_EQ(c, 1);
}

TEST(ThreadPool, BodyExceptionRethrownOnSubmitter)
{
    ThreadGuard guard(4);
    EXPECT_THROW(
        exec::parallelFor(0, 100, 1,
                          [&](std::size_t lo, std::size_t) {
                              if (lo == 57)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);

    // The pool must stay usable after a failed region.
    std::vector<int> visits(20, 0);
    exec::parallelFor(0, 20, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            ++visits[i];
    });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ThreadPool, TasksCounterIsThreadCountIndependent)
{
    auto tasksDelta = [&](int threads) {
        ThreadGuard guard(threads);
        const std::uint64_t before =
            obs::metrics().counter("exec.tasks").value();
        exec::parallelFor(0, 100, 7, [](std::size_t, std::size_t) {});
        return obs::metrics().counter("exec.tasks").value() - before;
    };
    const std::uint64_t expected =
        exec::ThreadPool::chunkCount(0, 100, 7);
    EXPECT_EQ(tasksDelta(1), expected);
    EXPECT_EQ(tasksDelta(4), expected);
}

} // namespace
