/**
 * @file
 * The amdahl_lint rule catalog and per-file rule engine.
 *
 * Each rule enforces one clause of the repo's two load-bearing
 * contracts — determinism ("thread/shard count is a performance knob,
 * never a results knob") and the trust boundary ("all external input
 * crosses Status/Result") — plus the observability and concurrency
 * conventions that keep those contracts checkable, and one performance
 * rule for a mistake that is easy to make on a hot path:
 *
 *  DET-rand       std::rand / random_device / <random> engines and
 *                 distributions outside common/random. Engine *output*
 *                 is standardized but distribution output is
 *                 implementation-defined, so any use outside the
 *                 deterministic RNG wrapper breaks cross-stdlib
 *                 reproducibility. Scope: src/, bench/.
 *  DET-clock      system_clock / steady_clock / C time reads outside
 *                 obs/ (which never lets timings into results) and
 *                 exec/ (which owns scheduling). A clock read anywhere
 *                 else is a nondeterminism source feeding results.
 *                 Scope: src/.
 *  DET-exec       hardware_concurrency / thread::get_id / getenv
 *                 outside exec/. Machine shape and environment must
 *                 enter through the one audited knob (AMDAHL_THREADS
 *                 via exec::threadCount), never ad hoc. Scope: src/.
 *  DET-unordered  Range-for over an unordered_map/unordered_set whose
 *                 body accumulates (+=, push_back, ...). Hash-table
 *                 iteration order is unspecified, so such reductions
 *                 are reduction-order hazards in the deterministic
 *                 kernels. Scope: src/core/, src/solver/, src/eval/.
 *  DET-simd       Vector intrinsics (_mm… or __m… names) or an intrinsics
 *                 header (<immintrin.h> family) outside the two
 *                 designated TUs. core/bidding_simd.cc carries the
 *                 proven bit-identity contract with the scalar
 *                 reference (elementwise correctly-rounded ops, no
 *                 FMA, serial semantic folds); common/crc32.cc's
 *                 carry-less fold must equal the bitwise CRC
 *                 reference at every length and offset. An intrinsic
 *                 anywhere else has no such contract. Scope: src/,
 *                 bench/; allow: src/core/bidding_simd.*,
 *                 src/common/crc32.*.
 *  TRUST-throw    A literal `throw` outside common/logging.hh (the
 *                 single place fatal()/panic() raise their typed
 *                 errors). Ingestion and parse paths must return
 *                 Result<T>/Status instead. Scope: src/, tools/.
 *  TRUST-catch    catch-by-value: a catch clause that is neither
 *                 by-reference nor `...`. Slicing a FatalError down to
 *                 std::exception loses the taxonomy the boundary
 *                 promises. Scope: everywhere scanned.
 *  OBS-io         Direct std::cerr/std::cout/printf-family output in
 *                 library code. Diagnostics must route through the
 *                 common/logging hook so the obs/ trace sink observes
 *                 them. Scope: src/.
 *  TRUST-fio      Raw file IO (fopen-family, ofstream/fstream,
 *                 rename) outside its designated owners. Durable
 *                 artifacts must go through robustness/durability
 *                 (fsync + atomic-rename commit protocol) or one of
 *                 the audited sinks (the amdahl_market CLI, the bench
 *                 emitters) so write failures surface as Status
 *                 instead of silently losing data. Scope: src/,
 *                 bench/, tools/; allow: src/robustness/durability/,
 *                 bench/bench_util.hh, tools/amdahl_market.cc,
 *                 tools/lint/.
 *  CONC-global    Mutable namespace-scope state that is not atomic,
 *                 a synchronization primitive, thread_local, or
 *                 explicitly ALINT-annotated as externally guarded.
 *                 Scope: src/.
 *  PERF-eager-msg A `toString()` call inside the argument list of
 *                 `ensure(`. ensure() is a function, so its message
 *                 arguments are built on every call, failing or not;
 *                 a hot check pays a string allocation per success.
 *                 Test the condition and call panic() on failure
 *                 instead. Scope: src/.
 *  META-alint     An ALINT marker that does not parse as
 *                 `ALINT(rule): reason`. A suppression must name its
 *                 rule and justify itself, or it is itself a finding.
 *                 Scope: everywhere scanned.
 *
 * Findings can be silenced two ways: an inline
 * `// ALINT(rule): reason` on the offending line (or the whole-line
 * comment directly above it), or an entry in the checked-in baseline
 * for grandfathered findings (see baseline.hh). `--strict` fails only
 * on findings that are neither.
 */

#ifndef AMDAHL_LINT_RULES_HH
#define AMDAHL_LINT_RULES_HH

#include <string>
#include <vector>

#include "lexer.hh"

namespace amdahl::lint {

/** One rule violation at one source location. */
struct Finding
{
    std::string rule;    //!< Rule id, e.g. "DET-clock".
    std::string file;    //!< Repo-relative path, forward slashes.
    int line;            //!< 1-based source line.
    std::string message; //!< What is wrong and what to do instead.
    std::string snippet; //!< Trimmed source line text.
    bool suppressed = false; //!< Silenced by an inline ALINT marker.
    bool baselined = false;  //!< Matched a baseline entry.
};

/** Static description of one rule, for --list-rules and the docs. */
struct RuleInfo
{
    const char *id;
    const char *summary;
};

/** @return The catalog of rules, in reporting order. */
const std::vector<RuleInfo> &ruleCatalog();

/**
 * Run every applicable rule over one lexed file.
 *
 * @param relPath Repo-relative path with forward slashes; rules use it
 *        to decide applicability (scope and allowlist prefixes).
 * @param file The lexed token stream, suppressions, and raw lines.
 * @return Findings with `suppressed` already resolved against the
 *         file's ALINT markers; baseline matching is the caller's job.
 */
std::vector<Finding> runRules(const std::string &relPath,
                              const LexedFile &file);

} // namespace amdahl::lint

#endif // AMDAHL_LINT_RULES_HH
