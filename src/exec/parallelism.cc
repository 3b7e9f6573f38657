#include "parallelism.hh"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace amdahl::exec {

namespace {

/** 0 = not yet resolved from the environment. */
std::atomic<int> configuredThreads{0};

int
resolveFromEnvironment()
{
    const char *value = std::getenv("AMDAHL_THREADS");
    if (value == nullptr || *value == '\0')
        return 1;
    try {
        return parseThreadCount(value);
    } catch (const FatalError &) {
        warn("ignoring invalid AMDAHL_THREADS='", value,
             "' (want a non-negative integer or 'auto'); running "
             "single-threaded");
        return 1;
    }
}

} // namespace

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int
threadCount()
{
    int current = configuredThreads.load(std::memory_order_relaxed);
    if (current > 0)
        return current;
    // First query: resolve the environment once. A racing setThreadCount
    // wins via the compare-exchange below.
    const int resolved = resolveFromEnvironment();
    if (configuredThreads.compare_exchange_strong(
            current, resolved, std::memory_order_relaxed))
        return resolved;
    return current;
}

int
setThreadCount(int n)
{
    if (n < 0)
        fatal("thread count must be non-negative (0 = auto), got ", n);
    const int effective = n == 0 ? hardwareThreads() : n;
    const int previous =
        configuredThreads.exchange(effective, std::memory_order_relaxed);
    // A set before the first query reports the default, not "unset".
    return previous > 0 ? previous : 1;
}

int
parseThreadCount(const std::string &text)
{
    if (text == "auto" || text == "0")
        return hardwareThreads();
    std::size_t consumed = 0;
    int parsed = 0;
    try {
        parsed = std::stoi(text, &consumed);
    } catch (const std::exception &) {
        consumed = 0;
    }
    if (text.empty() || consumed != text.size() || parsed < 0)
        fatal("invalid thread count '", text,
              "' (want a non-negative integer or 'auto')");
    return parsed == 0 ? hardwareThreads() : parsed;
}

} // namespace amdahl::exec
