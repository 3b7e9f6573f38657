#include "rules.hh"

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <unordered_set> // ALINT(DET-unordered): lookup-only sets; nothing iterates them into an accumulation.

namespace amdahl::lint {

namespace {

// ---------------------------------------------------------------------
// Path scoping.

/** @return true when @p rel lives under the directory prefix @p dir. */
bool
underPrefix(std::string_view rel, std::string_view prefix)
{
    return rel.size() >= prefix.size() &&
           rel.substr(0, prefix.size()) == prefix;
}

/**
 * Scope spec for one rule: the rule fires only for files under one of
 * `scopes` (empty = every scanned file) and never for files under one
 * of `allow` (the designated owners of the construct).
 */
struct RuleScope
{
    std::vector<std::string_view> scopes;
    std::vector<std::string_view> allow;
};

bool
applies(const RuleScope &scope, std::string_view rel)
{
    if (!scope.scopes.empty() &&
        std::none_of(scope.scopes.begin(), scope.scopes.end(),
                     [&](std::string_view s) {
                         return underPrefix(rel, s);
                     }))
        return false;
    return std::none_of(scope.allow.begin(), scope.allow.end(),
                        [&](std::string_view a) {
                            return underPrefix(rel, a);
                        });
}

const RuleScope kScopeDetRand{{"src/", "bench/"}, {"src/common/random."}};
// Only the timer (src/obs/timer.*) may read wall clocks inside obs/:
// the span and trace layers carry virtual ticks exclusively, so a
// clock read there is a determinism bug, not telemetry.
const RuleScope kScopeDetClock{{"src/"},
                               {"src/obs/timer", "src/exec/"}};
const RuleScope kScopeDetExec{{"src/"}, {"src/exec/"}};
const RuleScope kScopeDetUnordered{
    {"src/core/", "src/solver/", "src/eval/"}, {}};
// Vector intrinsics live in exactly two translation units, each with
// its header: the bid kernel (src/core/bidding_simd.cc), where the
// bit-identity argument — elementwise correctly-rounded ops, no FMA,
// serial semantic folds — is written down and tested, and the CRC-32
// fold (src/common/crc32.cc), whose output must equal the bitwise
// reference at every length and offset, as its tests check. An
// intrinsic anywhere else has no such contract and silently breaks
// byte-identity between CPUs with and without the instructions.
const RuleScope kScopeDetSimd{{"src/", "bench/"},
                              {"src/core/bidding_simd.",
                               "src/common/crc32."}};
const RuleScope kScopeTrustThrow{{"src/", "tools/"},
                                 {"src/common/logging.hh"}};
const RuleScope kScopeTrustCatch{{}, {}};
const RuleScope kScopeObsIo{{"src/"}, {"src/common/logging.cc"}};
// Raw file IO is confined to the crash-safe durability layer plus the
// two designated artifact sinks (CLI, bench emitters). The linter's
// own file loading is exempt: it is a read-only dev tool.
const RuleScope kScopeTrustFio{
    {"src/", "bench/", "tools/"},
    {"src/robustness/durability/", "bench/bench_util.hh",
     "tools/amdahl_market.cc", "tools/lint/"}};
const RuleScope kScopeConcGlobal{{"src/"}, {}};
const RuleScope kScopePerfEagerMsg{{"src/"}, {}};
// The linter's own sources document the marker grammar in comments,
// which would read as malformed markers; they are the one place
// allowed to spell it.
const RuleScope kScopeMetaAlint{{}, {"tools/lint/"}};

// ---------------------------------------------------------------------
// Token helpers.

bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

bool
isIdent(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

/** @return Index of the matching close for the open paren at @p open. */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], "("))
            ++depth;
        else if (isPunct(toks[i], ")") && --depth == 0)
            return i;
    }
    return toks.size();
}

/** @return Index of the matching close for the open brace at @p open. */
std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], "{"))
            ++depth;
        else if (isPunct(toks[i], "}") && --depth == 0)
            return i;
    }
    return toks.size();
}

// ---------------------------------------------------------------------
// Finding construction.

struct RuleContext
{
    const std::string &relPath;
    const LexedFile &file;
    std::vector<Finding> &out;
};

void
report(RuleContext &ctx, const char *rule, int line, std::string message)
{
    std::string snippet;
    if (line >= 1 &&
        static_cast<std::size_t>(line) <= ctx.file.lines.size()) {
        std::string_view s = ctx.file.lines[line - 1];
        while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
            s.remove_prefix(1);
        while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
            s.remove_suffix(1);
        snippet = std::string(s);
    }
    ctx.out.push_back(Finding{rule, ctx.relPath, line,
                              std::move(message), std::move(snippet)});
}

// ---------------------------------------------------------------------
// DET-rand: nondeterministic or stdlib-dependent randomness.

const std::unordered_set<std::string_view> kRandEngines{
    "srand", "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b", "default_random_engine",
};

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

void
checkDetRand(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        const bool isRandCall =
            t.text == "rand" &&
            ((i + 1 < toks.size() && isPunct(toks[i + 1], "(")) ||
             (i > 0 && isPunct(toks[i - 1], "::")));
        if (isRandCall || kRandEngines.count(t.text) > 0 ||
            endsWith(t.text, "_distribution")) {
            report(ctx, "DET-rand", t.line,
                   "randomness source `" + t.text +
                       "` outside common/random; use amdahl::Rng (or a "
                       "counter-based substream) so same-seed runs stay "
                       "byte-identical across standard libraries");
        }
    }
}

// ---------------------------------------------------------------------
// DET-clock: wall-clock reads outside obs/timer and exec/.

const std::unordered_set<std::string_view> kClockIdents{
    "system_clock",   "steady_clock", "high_resolution_clock",
    "clock_gettime",  "gettimeofday", "timespec_get",
};

void
checkDetClock(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        const bool stdTimeCall =
            (t.text == "time" || t.text == "clock") && i >= 2 &&
            isPunct(toks[i - 1], "::") && isIdent(toks[i - 2], "std") &&
            i + 1 < toks.size() && isPunct(toks[i + 1], "(");
        if (kClockIdents.count(t.text) > 0 || stdTimeCall) {
            report(ctx, "DET-clock", t.line,
                   "clock read `" + t.text +
                       "` outside obs/timer and exec/; results must not "
                       "depend on wall time — route timing through "
                       "obs::ScopedTimer or justify with an ALINT");
        }
    }
}

// ---------------------------------------------------------------------
// DET-exec: machine-shape and environment probes outside exec/.

const std::unordered_set<std::string_view> kExecIdents{
    "hardware_concurrency", "get_id", "getenv", "secure_getenv",
};

void
checkDetExec(RuleContext &ctx)
{
    for (const Token &t : ctx.file.tokens) {
        if (t.kind == TokKind::Identifier && kExecIdents.count(t.text)) {
            report(ctx, "DET-exec", t.line,
                   "machine/environment probe `" + t.text +
                       "` outside exec/; thread count and environment "
                       "enter through exec::threadCount() so they stay "
                       "a performance knob, never a results knob");
        }
    }
}

// ---------------------------------------------------------------------
// DET-unordered: hash-order-dependent reductions.

const std::unordered_set<std::string_view> kUnorderedTypes{
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

const std::unordered_set<std::string_view> kAccumulatePunct{
    "+=", "-=", "*=", "/=", "|=", "&=", "^=",
};

const std::unordered_set<std::string_view> kAccumulateCalls{
    "push_back", "emplace_back", "append",
};

/**
 * Names of variables declared with an unordered container type in
 * this file. Declarations are recognized as `unordered_X < ...> name`,
 * with references/pointers tolerated between the template close and
 * the name. A `>>` token closes two template levels.
 */
std::unordered_set<std::string>
collectUnorderedNames(const std::vector<Token> &toks)
{
    std::unordered_set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier ||
            kUnorderedTypes.count(toks[i].text) == 0)
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || !isPunct(toks[j], "<"))
            continue;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "<"))
                ++depth;
            else if (isPunct(toks[j], ">"))
                --depth;
            else if (isPunct(toks[j], ">>"))
                depth -= 2;
            if (depth <= 0) {
                ++j;
                break;
            }
        }
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const")))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Identifier)
            names.insert(toks[j].text);
    }
    return names;
}

void
checkDetUnordered(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    const auto names = collectUnorderedNames(toks);
    if (names.empty())
        return;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "("))
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        if (close >= toks.size())
            continue;
        // A range-for has a top-level ':' inside the parens ('::' is a
        // distinct token, so a plain ':' is unambiguous).
        std::size_t colon = toks.size();
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")"))
                --depth;
            else if (depth == 1 && isPunct(toks[j], ":")) {
                colon = j;
                break;
            }
        }
        if (colon >= close)
            continue;
        bool overUnordered = false;
        std::string rangeName;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (toks[j].kind == TokKind::Identifier &&
                names.count(toks[j].text) > 0) {
                overUnordered = true;
                rangeName = toks[j].text;
                break;
            }
        }
        if (!overUnordered)
            continue;
        // Body: a braced block or a single statement.
        std::size_t bodyBegin = close + 1;
        std::size_t bodyEnd;
        if (bodyBegin < toks.size() && isPunct(toks[bodyBegin], "{")) {
            bodyEnd = matchBrace(toks, bodyBegin);
        } else {
            bodyEnd = bodyBegin;
            while (bodyEnd < toks.size() && !isPunct(toks[bodyEnd], ";"))
                ++bodyEnd;
        }
        for (std::size_t j = bodyBegin; j < bodyEnd && j < toks.size();
             ++j) {
            const bool accumulates =
                (toks[j].kind == TokKind::Punct &&
                 kAccumulatePunct.count(toks[j].text) > 0) ||
                (toks[j].kind == TokKind::Identifier &&
                 kAccumulateCalls.count(toks[j].text) > 0);
            if (accumulates) {
                report(ctx, "DET-unordered", toks[i].line,
                       "iteration over unordered container `" +
                           rangeName +
                           "` feeds an accumulation; hash order is "
                           "unspecified, so the reduction order (and "
                           "any float sum) varies by implementation — "
                           "iterate a sorted index instead");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// DET-simd: vector intrinsics outside the two designated TUs.

const std::unordered_set<std::string_view> kSimdHeaders{
    "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
    "pmmintrin.h", "smmintrin.h", "tmmintrin.h", "nmmintrin.h",
    "wmmintrin.h", "ammintrin.h", "avxintrin.h", "avx2intrin.h",
    "avx512fintrin.h", "arm_neon.h", "arm_sve.h",
};

const std::unordered_set<std::string_view> kSimdVectorTypes{
    "__m64",   "__m128", "__m128d", "__m128i", "__m256",
    "__m256d", "__m256i", "__m512", "__m512d", "__m512i",
};

bool
isIntrinsicName(std::string_view text)
{
    return text.substr(0, 4) == "_mm_" ||
           text.substr(0, 7) == "_mm256_" ||
           text.substr(0, 7) == "_mm512_" ||
           text.substr(0, 15) == "__builtin_ia32_" ||
           kSimdVectorTypes.count(text) > 0;
}

void
checkDetSimd(RuleContext &ctx)
{
    // The lexer strips preprocessor directives from the token stream,
    // so the include boundary is checked on the raw lines: a line
    // whose first non-blank character is '#' cannot be a comment or a
    // string, making the match exact enough to pin counts on.
    for (std::size_t n = 0; n < ctx.file.lines.size(); ++n) {
        std::string_view line = ctx.file.lines[n];
        while (!line.empty() &&
               (line.front() == ' ' || line.front() == '\t'))
            line.remove_prefix(1);
        if (line.empty() || line.front() != '#' ||
            line.find("include") == std::string_view::npos)
            continue;
        for (const std::string_view header : kSimdHeaders) {
            if (line.find(header) != std::string_view::npos) {
                report(ctx, "DET-simd", static_cast<int>(n + 1),
                       "intrinsics header <" + std::string(header) +
                           "> outside core/bidding_simd and "
                           "common/crc32; vector code is confined "
                           "to the two files whose bit-identity "
                           "contracts are proven and pinned by "
                           "tests");
                break;
            }
        }
    }
    for (const Token &t : ctx.file.tokens) {
        if (t.kind == TokKind::Identifier && isIntrinsicName(t.text)) {
            report(ctx, "DET-simd", t.line,
                   "vector intrinsic `" + t.text +
                       "` outside core/bidding_simd and common/crc32; "
                       "an intrinsic here has no bit-identity "
                       "contract with a scalar reference — move it "
                       "into a designated TU or justify with an "
                       "ALINT");
        }
    }
}

// ---------------------------------------------------------------------
// TRUST-throw / TRUST-catch.

void
checkTrustThrow(RuleContext &ctx)
{
    for (const Token &t : ctx.file.tokens) {
        if (isIdent(t, "throw")) {
            report(ctx, "TRUST-throw", t.line,
                   "`throw` outside the common/logging boundary; "
                   "ingestion and parse paths return Result<T>/Status, "
                   "internal errors go through fatal()/panic()");
        }
    }
}

void
checkTrustCatch(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "catch") || !isPunct(toks[i + 1], "("))
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        bool byRefOrAll = false;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (isPunct(toks[j], "&") || isPunct(toks[j], "...")) {
                byRefOrAll = true;
                break;
            }
        }
        if (!byRefOrAll) {
            report(ctx, "TRUST-catch", toks[i].line,
                   "catch-by-value slices the error type; catch by "
                   "const reference (or `...` at a last-resort "
                   "boundary) so FatalError/PanicError keep their "
                   "taxonomy");
        }
    }
}

// ---------------------------------------------------------------------
// OBS-io: direct output in library code.

const std::unordered_set<std::string_view> kDirectIo{
    "cerr", "cout", "clog", "printf", "fprintf", "vprintf", "vfprintf",
    "puts", "fputs", "putchar", "fputc",
};

void
checkObsIo(RuleContext &ctx)
{
    for (const Token &t : ctx.file.tokens) {
        if (t.kind == TokKind::Identifier && kDirectIo.count(t.text)) {
            report(ctx, "OBS-io", t.line,
                   "direct output `" + t.text +
                       "` in library code; route diagnostics through "
                       "warn()/inform() so the logging hook and trace "
                       "sink observe them");
        }
    }
}

// ---------------------------------------------------------------------
// TRUST-fio: raw file IO outside the designated owners.

const std::unordered_set<std::string_view> kRawFileIo{
    "fopen", "freopen", "tmpfile", "ofstream", "fstream", "rename",
};

void
checkTrustFio(RuleContext &ctx)
{
    for (const Token &t : ctx.file.tokens) {
        if (t.kind == TokKind::Identifier && kRawFileIo.count(t.text)) {
            report(ctx, "TRUST-fio", t.line,
                   "raw file IO `" + t.text +
                       "` outside the designated IO owners; durable "
                       "artifacts go through robustness/durability "
                       "(fsync + atomic-rename commit protocol) or a "
                       "designated CLI/bench sink so a write failure "
                       "is surfaced, never silently torn or lost");
        }
    }
}

// ---------------------------------------------------------------------
// CONC-global: unguarded mutable namespace-scope state.

const std::unordered_set<std::string_view> kSyncTypes{
    "mutex",          "shared_mutex",      "recursive_mutex",
    "timed_mutex",    "recursive_timed_mutex",
    "once_flag",      "condition_variable", "condition_variable_any",
};

const std::unordered_set<std::string_view> kImmutableQualifiers{
    "const", "constexpr", "constinit", "thread_local",
};

const std::unordered_set<std::string_view> kNonVariableLeads{
    "using",    "typedef", "static_assert", "extern",  "template",
    "friend",   "operator", "class",        "struct",  "union",
    "enum",     "concept",  "requires",     "asm",
};

/**
 * Collect one statement starting at @p i: tokens up to a top-level
 * `;`, or through a balanced `{...}` group (function body, class
 * body, or brace initializer) plus its optional trailing `;`.
 * Pre-group tokens are appended to @p stmt — they carry the
 * qualifiers and type names the classifier needs.
 *
 * @return Index one past the statement.
 */
std::size_t
collectStatement(const std::vector<Token> &toks, std::size_t i,
                 std::vector<std::size_t> &stmt)
{
    int parens = 0;
    while (i < toks.size()) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(") {
                ++parens;
            } else if (t.text == ")") {
                parens = parens > 0 ? parens - 1 : 0;
            } else if (t.text == "{" && parens == 0) {
                std::size_t end = matchBrace(toks, i);
                if (end < toks.size())
                    ++end;
                if (end < toks.size() && isPunct(toks[end], ";"))
                    ++end;
                return end;
            } else if (t.text == ";" && parens == 0) {
                return i + 1;
            }
        }
        stmt.push_back(i);
        ++i;
    }
    return i;
}

void
checkConcGlobal(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    std::size_t i = 0;
    while (i < toks.size()) {
        const Token &t = toks[i];
        // Enter namespaces; everything else at namespace scope is a
        // statement (whose braced groups collectStatement skips), so
        // a bare '}' here is always a namespace close.
        if (isIdent(t, "namespace")) {
            std::size_t j = i + 1;
            while (j < toks.size() && !isPunct(toks[j], "{") &&
                   !isPunct(toks[j], ";") && !isPunct(toks[j], "="))
                ++j;
            if (j < toks.size() && isPunct(toks[j], "=")) {
                // Namespace alias: skip to ';'.
                while (j < toks.size() && !isPunct(toks[j], ";"))
                    ++j;
            }
            i = j + 1;
            continue;
        }
        if (isPunct(t, "}") || isPunct(t, ";")) {
            ++i;
            continue;
        }

        std::vector<std::size_t> stmt;
        const std::size_t next = collectStatement(toks, i, stmt);
        const int line = toks[i].line;
        i = next;
        if (stmt.empty())
            continue;

        const Token &lead = toks[stmt.front()];
        if (lead.kind == TokKind::Identifier &&
            kNonVariableLeads.count(lead.text) > 0)
            continue;

        bool sawParenFirst = false;
        bool immutable = false;
        bool synchronized = false;
        std::string varName;
        for (const std::size_t k : stmt) {
            const Token &s = toks[k];
            if (s.kind == TokKind::Punct) {
                if (s.text == "(") {
                    sawParenFirst = true;
                    break;
                }
                if (s.text == "=")
                    break; // Initializer: what follows is a value.
                continue;
            }
            if (s.kind != TokKind::Identifier)
                continue;
            if (s.text == "operator") {
                // Out-of-line operator definition: the '=' of
                // `T::operator=` is part of the name, not an
                // initializer.
                sawParenFirst = true;
                break;
            }
            if (kImmutableQualifiers.count(s.text) > 0)
                immutable = true;
            if (kSyncTypes.count(s.text) > 0 ||
                s.text.find("atomic") != std::string::npos)
                synchronized = true;
            varName = s.text; // Last identifier before '='/';' wins.
        }
        if (sawParenFirst || immutable || synchronized)
            continue;
        if (varName.empty())
            continue;
        report(ctx, "CONC-global", line,
               "mutable namespace-scope state `" + varName +
                   "` is neither atomic, a sync primitive, nor "
                   "thread_local; make it one of those or annotate the "
                   "external guard with an ALINT");
    }
}

// ---------------------------------------------------------------------
// PERF-eager-msg: a message built for a check that passes.

void
checkPerfEagerMsg(RuleContext &ctx)
{
    const auto &toks = ctx.file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "ensure") || !isPunct(toks[i + 1], "("))
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        for (std::size_t j = i + 2; j + 1 < close; ++j) {
            if (isIdent(toks[j], "toString") &&
                isPunct(toks[j + 1], "(")) {
                report(ctx, "PERF-eager-msg", toks[i].line,
                       "`toString()` in the arguments of ensure() is "
                       "built on every call, passing or not; test the "
                       "condition and call panic() only when it fails");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// META-alint: unreadable or unknown suppressions.

bool
isKnownRule(std::string_view id)
{
    if (id == "*")
        return true;
    for (const RuleInfo &info : ruleCatalog())
        if (id == info.id)
            return true;
    return false;
}

void
checkMetaAlint(RuleContext &ctx)
{
    for (const Suppression &sup : ctx.file.suppressions) {
        if (sup.malformed) {
            report(ctx, "META-alint", sup.line,
                   "unreadable ALINT marker; the required shape is "
                   "`ALINT(rule-id): reason` with a non-empty reason");
        } else if (!isKnownRule(sup.rule)) {
            report(ctx, "META-alint", sup.line,
                   "ALINT names unknown rule `" + sup.rule +
                       "`; see amdahl_lint --list-rules");
        }
    }
}

// ---------------------------------------------------------------------
// Suppression resolution.

/**
 * An inline suppression covers its own line and the following line,
 * so both styles work:
 *
 *     badCall(); // ALINT(RULE): reason
 *
 *     // ALINT(RULE): reason
 *     badCall();
 */
void
applySuppressions(const LexedFile &file, std::vector<Finding> &findings)
{
    for (Finding &f : findings) {
        if (f.rule == "META-alint")
            continue; // A marker cannot vouch for itself.
        for (const Suppression &sup : file.suppressions) {
            if (sup.malformed)
                continue;
            if (sup.rule != "*" && sup.rule != f.rule)
                continue;
            if (f.line == sup.line || f.line == sup.line + 1) {
                f.suppressed = true;
                break;
            }
        }
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog{
        {"DET-rand",
         "randomness outside common/random (std::rand, random_device, "
         "<random> engines/distributions)"},
        {"DET-clock",
         "clock reads outside obs/timer and exec/ (system_clock, "
         "steady_clock, C time APIs)"},
        {"DET-exec",
         "machine/environment probes outside exec/ "
         "(hardware_concurrency, thread::get_id, getenv)"},
        {"DET-unordered",
         "range-for over an unordered container feeding an "
         "accumulation in core/, solver/, eval/"},
        {"DET-simd",
         "vector intrinsics or intrinsics headers outside "
         "core/bidding_simd and common/crc32, the two TUs with a "
         "bit-identity contract"},
        {"TRUST-throw",
         "literal `throw` outside common/logging.hh; boundary code "
         "returns Result<T>/Status"},
        {"TRUST-catch",
         "catch-by-value; catch by const reference or `...`"},
        {"OBS-io",
         "direct std::cerr/std::cout/printf-family output in src/"},
        {"TRUST-fio",
         "raw file IO (fopen-family, ofstream/fstream, rename) "
         "outside the durability layer and designated sinks"},
        {"CONC-global",
         "mutable namespace-scope state that is not atomic, a sync "
         "primitive, or thread_local"},
        {"PERF-eager-msg",
         "toString() in the arguments of ensure(), built even when the "
         "check passes; test first and panic() on failure"},
        {"META-alint",
         "ALINT marker that is malformed or names an unknown rule"},
    };
    return catalog;
}

std::vector<Finding>
runRules(const std::string &relPath, const LexedFile &file)
{
    std::vector<Finding> findings;
    RuleContext ctx{relPath, file, findings};

    if (applies(kScopeDetRand, relPath))
        checkDetRand(ctx);
    if (applies(kScopeDetClock, relPath))
        checkDetClock(ctx);
    if (applies(kScopeDetExec, relPath))
        checkDetExec(ctx);
    if (applies(kScopeDetUnordered, relPath))
        checkDetUnordered(ctx);
    if (applies(kScopeDetSimd, relPath))
        checkDetSimd(ctx);
    if (applies(kScopeTrustThrow, relPath))
        checkTrustThrow(ctx);
    if (applies(kScopeTrustCatch, relPath))
        checkTrustCatch(ctx);
    if (applies(kScopeObsIo, relPath))
        checkObsIo(ctx);
    if (applies(kScopeTrustFio, relPath))
        checkTrustFio(ctx);
    if (applies(kScopeConcGlobal, relPath))
        checkConcGlobal(ctx);
    if (applies(kScopePerfEagerMsg, relPath))
        checkPerfEagerMsg(ctx);
    if (applies(kScopeMetaAlint, relPath))
        checkMetaAlint(ctx);

    applySuppressions(file, findings);

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return findings;
}

} // namespace amdahl::lint
