#include "market_io.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace amdahl::core {

namespace {

using Tokens = std::vector<std::string_view>;

/** @return true for the whitespace operator>> skips in the C locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
           c == '\f' || c == '\r';
}

/**
 * Split a line into whitespace-separated tokens, dropping comments: a
 * token that starts with '#' ends the line. The tokens are views into
 * @p line and @p tokens is reused across lines, so splitting a line
 * allocates nothing once the buffer has grown.
 */
void
tokenize(std::string_view line, Tokens &tokens)
{
    tokens.clear();
    std::size_t pos = 0;
    for (;;) {
        while (pos < line.size() && isSpace(line[pos]))
            ++pos;
        if (pos == line.size() || line[pos] == '#')
            return;
        const std::size_t start = pos;
        while (pos < line.size() && !isSpace(line[pos]))
            ++pos;
        tokens.push_back(line.substr(start, pos - start));
    }
}

/**
 * Parse one numeric token without exceptions. A token that is not
 * entirely a number is a parse error; a number whose value is
 * non-finite or out of double range is a domain error (std::stod used
 * to let "nan" and "inf" budgets straight through — the classic
 * trust-boundary leak this module now exists to stop).
 */
Status
parseNumber(std::string_view token, int line_no, const char *what,
            double &value)
{
    double parsed = 0.0;
    const char *first = token.data();
    const char *last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec == std::errc::result_out_of_range) {
        return Status::error(ErrorKind::DomainError, line_no, what,
                             " '", token, "' is out of range");
    }
    if (ec != std::errc() || ptr != last) {
        return Status::error(ErrorKind::ParseError, line_no,
                             "expected a number for ", what, ", got '",
                             token, "'");
    }
    if (!std::isfinite(parsed)) {
        return Status::error(ErrorKind::DomainError, line_no, what,
                             " must be finite, got '", token, "'");
    }
    value = parsed;
    return Status::ok();
}

/** Parse a non-negative integer token (server indices). */
Status
parseIndex(std::string_view token, int line_no, const char *what,
           std::size_t &value)
{
    std::size_t parsed = 0;
    const char *first = token.data();
    const char *last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec == std::errc::result_out_of_range) {
        return Status::error(ErrorKind::DomainError, line_no, what,
                             " '", token, "' is out of range");
    }
    if (ec != std::errc() || ptr != last) {
        return Status::error(ErrorKind::ParseError, line_no,
                             "expected a non-negative integer for ",
                             what, ", got '", token, "'");
    }
    value = parsed;
    return Status::ok();
}

/**
 * Recursive-descent-per-line market parser. All validation that
 * FisherMarket::addUser would enforce by throwing is performed here
 * first, with the line number of the offending input, so construction
 * below never throws on untrusted bytes.
 */
struct MarketParser
{
    MarketParseOptions opts;
    std::optional<FisherMarket> market;
    MarketUser current;
    /** Per server, the index of the last user with a job there (the
     *  duplicate-job check); the current user's index is userCount(). */
    std::vector<std::size_t> lastUserOn;
    bool inUser = false;
    int userLine = 0;

    Status
    flushUser()
    {
        if (!inUser)
            return Status::ok();
        if (current.jobs.empty()) {
            return Status::error(ErrorKind::SemanticError, userLine,
                                 "user '", current.name,
                                 "' has no jobs");
        }
        market->addUser(std::move(current));
        current = MarketUser();
        inUser = false;
        return Status::ok();
    }

    Status
    serversLine(const Tokens &tokens, int line_no)
    {
        if (market) {
            return Status::error(ErrorKind::SemanticError, line_no,
                                 "duplicate 'servers' line");
        }
        if (tokens.size() < 2) {
            return Status::error(ErrorKind::ParseError, line_no,
                                 "'servers' needs at least one capacity");
        }
        std::vector<double> capacities;
        for (std::size_t t = 1; t < tokens.size(); ++t) {
            double c = 0.0;
            if (auto st = parseNumber(tokens[t], line_no, "a capacity",
                                      c);
                !st.isOk()) {
                return st;
            }
            if (c <= 0.0) {
                return Status::error(ErrorKind::DomainError, line_no,
                                     "capacity must be positive, got ",
                                     c);
            }
            capacities.push_back(c);
        }
        lastUserOn.assign(capacities.size(),
                          std::numeric_limits<std::size_t>::max());
        market.emplace(std::move(capacities));
        return Status::ok();
    }

    Status
    userLineKeyword(const Tokens &tokens, int line_no)
    {
        if (!market) {
            return Status::error(ErrorKind::SemanticError, line_no,
                                 "'user' before 'servers'");
        }
        if (auto st = flushUser(); !st.isOk())
            return st;
        current = MarketUser();
        inUser = true;
        userLine = line_no;
        // Accept: user <name> [budget <b>]
        std::size_t t = 1;
        if (t < tokens.size() && tokens[t] != "budget")
            current.name = std::string(tokens[t++]);
        if (t < tokens.size()) {
            if (tokens[t] != "budget" || t + 1 >= tokens.size()) {
                return Status::error(ErrorKind::ParseError, line_no,
                                     "expected 'budget <value>'");
            }
            if (auto st = parseNumber(tokens[t + 1], line_no,
                                      "a budget", current.budget);
                !st.isOk()) {
                return st;
            }
            if (current.budget <= 0.0) {
                return Status::error(ErrorKind::DomainError, line_no,
                                     "budget must be positive, got ",
                                     current.budget);
            }
            t += 2;
        }
        if (t != tokens.size()) {
            return Status::error(ErrorKind::ParseError, line_no,
                                 "trailing tokens on 'user'");
        }
        return Status::ok();
    }

    Status
    jobLine(const Tokens &tokens, int line_no)
    {
        if (!inUser) {
            return Status::error(ErrorKind::SemanticError, line_no,
                                 "'job' before any 'user'");
        }
        if ((tokens.size() - 1) % 2 != 0) {
            return Status::error(ErrorKind::ParseError, line_no,
                                 "job keys and values must pair up");
        }
        JobSpec job;
        bool have_server = false, have_fraction = false;
        for (std::size_t t = 1; t + 1 < tokens.size(); t += 2) {
            const std::string_view key = tokens[t];
            const std::string_view value = tokens[t + 1];
            if (key == "server") {
                if (auto st = parseIndex(value, line_no,
                                         "a server index", job.server);
                    !st.isOk()) {
                    return st;
                }
                have_server = true;
            } else if (key == "fraction") {
                if (auto st = parseNumber(value, line_no, "a fraction",
                                          job.parallelFraction);
                    !st.isOk()) {
                    return st;
                }
                if (job.parallelFraction < 0.0 ||
                    job.parallelFraction > 1.0) {
                    return Status::error(
                        ErrorKind::DomainError, line_no,
                        "fraction must be in [0, 1], got ",
                        job.parallelFraction);
                }
                have_fraction = true;
            } else if (key == "weight") {
                if (auto st = parseNumber(value, line_no, "a weight",
                                          job.weight);
                    !st.isOk()) {
                    return st;
                }
                if (job.weight <= 0.0) {
                    return Status::error(
                        ErrorKind::DomainError, line_no,
                        "weight must be positive, got ", job.weight);
                }
            } else {
                return Status::error(ErrorKind::ParseError, line_no,
                                     "unknown job key '", key, "'");
            }
        }
        if (!have_server || !have_fraction) {
            return Status::error(ErrorKind::SemanticError, line_no,
                                 "job needs 'server' and 'fraction'");
        }
        if (job.server >= market->serverCount()) {
            return Status::error(
                ErrorKind::SemanticError, line_no, "job is on server ",
                job.server, " but there are only ",
                market->serverCount(), " servers");
        }
        const std::size_t user_index = market->userCount();
        if (opts.rejectDuplicateServerJobs &&
            std::exchange(lastUserOn[job.server], user_index) ==
                user_index) {
            return Status::error(
                ErrorKind::SemanticError, line_no, "user '",
                current.name, "' already has a job on server ",
                job.server,
                "; one job per (user, server) pair — merge the work "
                "or raise the weight");
        }
        current.jobs.push_back(job);
        return Status::ok();
    }
};

} // namespace

Result<FisherMarket>
tryParseMarket(std::istream &in, const MarketParseOptions &opts)
{
    if (!in) {
        return Status::error(ErrorKind::IoError, 0,
                             "cannot read market input");
    }

    MarketParser parser;
    parser.opts = opts;
    int line_no = 0;
    std::string line;
    Tokens tokens;
    while (std::getline(in, line)) {
        ++line_no;
        tokenize(line, tokens);
        if (tokens.empty())
            continue;
        const std::string_view keyword = tokens.front();

        Status st = Status::ok();
        if (keyword == "servers")
            st = parser.serversLine(tokens, line_no);
        else if (keyword == "user")
            st = parser.userLineKeyword(tokens, line_no);
        else if (keyword == "job")
            st = parser.jobLine(tokens, line_no);
        else
            st = Status::error(ErrorKind::ParseError, line_no,
                               "unknown keyword '", keyword, "'");
        if (!st.isOk())
            return st;
    }

    if (!parser.market) {
        return Status::error(ErrorKind::SemanticError, line_no,
                             "market file has no 'servers' line");
    }
    if (auto st = parser.flushUser(); !st.isOk())
        return st;
    if (parser.market->userCount() == 0) {
        return Status::error(ErrorKind::SemanticError, line_no,
                             "market file has no users");
    }
    return std::move(*parser.market);
}

Result<FisherMarket>
tryParseMarketString(const std::string &text,
                     const MarketParseOptions &opts)
{
    std::istringstream is(text);
    return tryParseMarket(is, opts);
}

Result<FisherMarket>
loadMarket(const std::string &path, const MarketParseOptions &opts)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(ErrorKind::IoError, 0, "cannot open '",
                             path, "'");
    }
    return tryParseMarket(in, opts);
}

FisherMarket
parseMarketString(const std::string &text)
{
    return tryParseMarketString(text).orFatal();
}

void
writeMarket(std::ostream &out, const FisherMarket &market)
{
    // max_digits10 so parse(write(m)) reproduces every double exactly.
    const auto saved_precision = out.precision(
        std::numeric_limits<double>::max_digits10);
    out << "servers";
    for (double c : market.capacities())
        out << ' ' << c;
    out << '\n';
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &user = market.user(i);
        out << "user ";
        if (!user.name.empty())
            out << user.name << ' ';
        out << "budget " << user.budget << '\n';
        for (const auto &job : user.jobs) {
            out << "job server " << job.server << " fraction "
                << job.parallelFraction << " weight " << job.weight
                << '\n';
        }
    }
    out.precision(saved_precision);
}

} // namespace amdahl::core
