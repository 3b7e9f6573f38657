/**
 * @file
 * Global parallelism configuration for the execution layer.
 *
 * The paper's bid update is *defined* as a distributed deployment
 * where bids are computed in parallel (§V-E); this module
 * decides how many threads the reproduction actually uses for that
 * fan-out. One process-wide thread count governs every pool section
 * (bid-update kernels, price gathers, scenario fan-outs); it defaults
 * to 1, which runs the exact serial instruction stream with the pool
 * never started, so single-threaded runs are bit-identical to a build
 * without the execution layer.
 *
 * Configuration sources, in priority order:
 *   1. exec::setThreadCount(n)   — programmatic (CLI `--threads`,
 *                                  benches, tests);
 *   2. AMDAHL_THREADS            — environment, read once on first
 *                                  query ("0" or "auto" = hardware);
 *   3. default                   — 1 (serial).
 *
 * exec/ is the designated owner of machine-shape and environment
 * probes: amdahl_lint's DET-exec rule flags hardware_concurrency,
 * thread::get_id, and getenv anywhere else in src/, so the thread
 * count stays a performance knob, never a results knob (see
 * tools/lint/ and DESIGN.md §12).
 *
 * Thread count is a *performance* knob, never a results knob: every
 * parallel construct in exec/ is deterministic by design (fixed chunk
 * layouts, ordered reductions), so the same seed produces byte-
 * identical traces, metrics, and allocations at any setting. DESIGN.md
 * §11 carries the argument.
 */

#ifndef AMDAHL_EXEC_PARALLELISM_HH
#define AMDAHL_EXEC_PARALLELISM_HH

#include <string>

namespace amdahl::exec {

/**
 * @return The configured thread count (>= 1). First call resolves the
 * AMDAHL_THREADS environment variable; later calls are one atomic
 * load.
 */
int threadCount();

/**
 * Set the process-wide thread count.
 *
 * @param n Threads to use; 0 selects the hardware concurrency.
 *          Negative values are invalid (fatal).
 * @return The previous setting.
 */
int setThreadCount(int n);

/** @return The hardware concurrency (>= 1 even when unknown). */
int hardwareThreads();

/**
 * Parse a `--threads` style value: a non-negative integer or "auto"
 * (hardware concurrency). @throws FatalError on anything else.
 */
int parseThreadCount(const std::string &text);

} // namespace amdahl::exec

#endif // AMDAHL_EXEC_PARALLELISM_HH
