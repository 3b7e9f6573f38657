/**
 * @file
 * Deterministic crash injection for the durability commit path.
 *
 * A kill point is a named site inside the epoch persistence pipeline
 * (see the catalog below). Arming one makes the process hard-exit with
 * kKillExitCode the Nth time execution reaches that site — simulating
 * a crash at exactly that point in the commit protocol, including
 * mid-write sites that leave a torn record on disk.
 *
 * Arming is a programmatic API: the amdahl_market CLI translates its
 * --kill-point flag (or the AMDAHL_KILL_POINT environment variable)
 * into armKillPoint() in tools/, keeping environment probes out of
 * src/ per the DET-exec contract. The chaos harness
 * (tools/chaos_recovery.py) drives the full site × occurrence matrix
 * and asserts recovery equivalence after every kill.
 *
 * The exit is std::_Exit: no atexit handlers, no stream flushes, no
 * destructors — the closest portable approximation of SIGKILL, and it
 * keeps LeakSanitizer from reporting the deliberately abandoned heap.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_KILL_POINTS_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_KILL_POINTS_HH

#include <string_view>
#include <vector>

#include "common/status.hh"

namespace amdahl::durability {

/** Exit code of a process that died at an armed kill point. */
constexpr int kKillExitCode = 86;

/**
 * Every registered crash site, in pipeline order. A site string is
 * stable API: tests and the chaos harness iterate this catalog.
 */
const std::vector<std::string_view> &killPointCatalog();

/**
 * Arm one kill point.
 *
 * @param spec "site" (first hit kills) or "site:N" (the Nth hit kills,
 *             1-based). Arming replaces any previously armed point and
 *             resets hit counting.
 * @return DomainError for an unknown site or an unparsable/zero N.
 */
Status armKillPoint(std::string_view spec);

/**
 * Crash site marker. No-op unless @p site is armed and this is the
 * armed occurrence; then the process exits immediately with
 * kKillExitCode.
 */
void killPoint(std::string_view site);

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_KILL_POINTS_HH
