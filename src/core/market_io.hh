/**
 * @file
 * Plain-text serialization of Fisher markets.
 *
 * A small line-oriented format so markets can be described in files,
 * shipped to the CLI tool, and round-tripped in tests:
 *
 *     # Comments start with '#'; blank lines are ignored.
 *     servers 10 10            # capacities C_j, one market per file
 *     user Alice budget 1
 *     job server 0 fraction 0.53 weight 1
 *     job server 1 fraction 0.93          # weight defaults to 1
 *     user Bob budget 1
 *     job server 0 fraction 0.96
 *     job server 1 fraction 0.68
 *
 * `job` lines attach to the most recent `user`. Keywords may appear
 * in any order within a line's key/value pairs.
 */

#ifndef AMDAHL_CORE_MARKET_IO_HH
#define AMDAHL_CORE_MARKET_IO_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "core/market.hh"

namespace amdahl::core {

/** Strictness knobs for market-file ingestion. */
struct MarketParseOptions
{
    /**
     * Reject a user listing the same server twice (semantic error).
     * Two `job` lines on one server are almost always a tenant
     * copy-paste bug or a deliberate bid-splitting probe, so the
     * trust boundary refuses them by default. Markets *generated*
     * in-process may legitimately give one user several jobs on one
     * server; round-tripping those through writeMarket requires
     * turning this off.
     */
    bool rejectDuplicateServerJobs = true;
};

/**
 * Parse an untrusted market description with structured errors.
 *
 * Market files arrive from tenants, so this is a trust boundary
 * (common/status.hh): every malformed byte sequence maps to a
 * classified, line-numbered Status — parse errors for bad tokens,
 * domain errors for non-finite or out-of-range values (NaN budgets,
 * fractions outside [0, 1], negative capacities), semantic errors for
 * inconsistent documents (duplicate `job server` entries for one user,
 * job server indices past the capacity list, markets with no users).
 * Never throws on malformed input.
 *
 * @param in   Input stream with the format above.
 * @param opts Strictness knobs.
 * @return The market, or the first error encountered.
 */
Result<FisherMarket> tryParseMarket(std::istream &in,
                                    const MarketParseOptions &opts = {});

/** Convenience: structured parse from a string. */
Result<FisherMarket>
tryParseMarketString(const std::string &text,
                     const MarketParseOptions &opts = {});

/**
 * Open and parse a market file.
 *
 * @param path Filesystem path.
 * @param opts Strictness knobs.
 * @return The market, an IoError when the file cannot be opened, or
 *         the first parse/domain/semantic error.
 */
Result<FisherMarket> loadMarket(const std::string &path,
                                const MarketParseOptions &opts = {});

/**
 * Parse a market description from a string (throwing wrapper over
 * tryParseMarketString).
 *
 * @return The market (validated: at least one user; server indices in
 *         range).
 * @throws FatalError with the classified, line-numbered diagnostic on
 *         malformed input.
 */
FisherMarket parseMarketString(const std::string &text);

/**
 * Write a market in the same format (round-trips through
 * tryParseMarket; markets giving one user several jobs on one server
 * need MarketParseOptions::rejectDuplicateServerJobs = false to
 * re-parse).
 */
void writeMarket(std::ostream &out, const FisherMarket &market);

} // namespace amdahl::core

#endif // AMDAHL_CORE_MARKET_IO_HH
