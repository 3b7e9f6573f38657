/**
 * @file
 * amdahl_lint engine tests over the fixture corpus.
 *
 * The corpus under fixtures/ mirrors the repo's directory contract
 * (src/core, src/common, src/obs, src/exec), one known-violation file
 * and one clean counterpart per rule, plus suppression, malformed
 * marker, and decoy (strings/comments) cases. Counts asserted here
 * are exact: a rule that over-fires is as broken as one that stays
 * silent.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "baseline.hh"
#include "linter.hh"
#include "rules.hh"

#ifndef AMDAHL_LINT_FIXTURE_DIR
#error "AMDAHL_LINT_FIXTURE_DIR must point at the fixture corpus"
#endif

namespace amdahl::lint {
namespace {

const std::string kRoot = AMDAHL_LINT_FIXTURE_DIR;

LintReport
lintCorpus(Baseline baseline = {})
{
    auto files = discoverFiles(kRoot);
    auto report = lintFiles(kRoot, files, std::move(baseline));
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return report.take();
}

/** Findings per (file, rule), silenced ones included. */
std::map<std::pair<std::string, std::string>, int>
tally(const LintReport &report)
{
    std::map<std::pair<std::string, std::string>, int> counts;
    for (const Finding &f : report.findings)
        ++counts[{f.file, f.rule}];
    return counts;
}

TEST(LintCorpus, DiscoversTheWholeFixtureTree)
{
    const auto files = discoverFiles(kRoot);
    EXPECT_EQ(files.size(), 30u);
    // Sorted, repo-relative, forward slashes.
    EXPECT_FALSE(files.empty());
    EXPECT_EQ(files.front().substr(0, 4), "src/");
}

TEST(LintCorpus, EachRuleFiresExactlyOnItsFixture)
{
    const auto counts = tally(lintCorpus());
    const std::map<std::pair<std::string, std::string>, int> expected{
        {{"src/core/det_rand_violation.cc", "DET-rand"}, 4},
        {{"src/core/det_clock_violation.cc", "DET-clock"}, 2},
        {{"src/net/det_clock_violation.cc", "DET-clock"}, 2},
        {{"src/obs/span_clock_violation.cc", "DET-clock"}, 2},
        {{"src/net/det_rand_violation.cc", "DET-rand"}, 4},
        {{"src/core/det_exec_violation.cc", "DET-exec"}, 2},
        {{"src/core/det_unordered_violation.cc", "DET-unordered"}, 1},
        {{"src/core/det_simd_violation.cc", "DET-simd"}, 3},
        {{"src/core/trust_throw_violation.cc", "TRUST-throw"}, 1},
        {{"src/core/trust_catch_violation.cc", "TRUST-catch"}, 1},
        {{"src/core/obs_io_violation.cc", "OBS-io"}, 2},
        {{"src/core/trust_fio_violation.cc", "TRUST-fio"}, 3},
        {{"src/core/conc_global_violation.cc", "CONC-global"}, 2},
        {{"src/core/perf_eager_msg_violation.cc", "PERF-eager-msg"}, 2},
        {{"src/core/suppressed.cc", "CONC-global"}, 2},
        {{"src/core/alint_malformed.cc", "META-alint"}, 2},
        {{"src/core/alint_malformed.cc", "CONC-global"}, 2},
    };
    EXPECT_EQ(counts, expected);
}

TEST(LintCorpus, CleanCounterpartsAndAllowlistedOwnersStaySilent)
{
    const auto counts = tally(lintCorpus());
    for (const char *file : {
             "src/core/det_rand_clean.cc",
             "src/core/det_unordered_clean.cc",
             "src/core/bidding_simd.cc",
             "src/common/crc32.cc",
             "src/core/trust_clean.cc",
             "src/core/conc_global_clean.cc",
             "src/core/perf_eager_msg_clean.cc",
             "src/core/strings_and_comments_clean.cc",
             "src/core/clean.cc",
             "src/common/random.cc",
             "src/common/logging.cc",
             "src/obs/timer_clock_allowed.cc",
             "src/exec/probe_allowed.cc",
             "src/robustness/durability/fio_allowed.cc",
         }) {
        for (const auto &[key, count] : counts)
            EXPECT_NE(key.first, file)
                << key.second << " fired " << count << "x on " << file;
    }
}

TEST(LintCorpus, InlineSuppressionSilencesButStaysVisible)
{
    const LintReport report = lintCorpus();
    int suppressed = 0;
    for (const Finding &f : report.findings) {
        if (f.file == "src/core/suppressed.cc") {
            EXPECT_TRUE(f.suppressed) << f.rule << ':' << f.line;
            ++suppressed;
        }
    }
    EXPECT_EQ(suppressed, 2);

    const FindingCounts counts = countFindings(report);
    EXPECT_EQ(counts.total, 37);
    EXPECT_EQ(counts.suppressed, 2);
    EXPECT_EQ(counts.baselined, 0);
    EXPECT_EQ(counts.active, 35);
}

TEST(LintCorpus, MalformedMarkersNeverSuppress)
{
    const LintReport report = lintCorpus();
    for (const Finding &f : report.findings) {
        if (f.file == "src/core/alint_malformed.cc") {
            EXPECT_FALSE(f.suppressed) << f.rule << ':' << f.line;
        }
    }
}

TEST(LintBaseline, MatchesByRuleFileAndLineText)
{
    auto parsed = parseBaseline(
        "# why: fixture entry for the baseline round-trip test.\n"
        "TRUST-throw|src/core/trust_throw_violation.cc|"
        "throw std::runtime_error(\"value must be non-negative\");\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().entries.size(), 1u);
    EXPECT_TRUE(parsed.value().entries[0].justified);

    const LintReport report = lintCorpus(parsed.take());
    bool sawBaselined = false;
    for (const Finding &f : report.findings) {
        if (f.rule == "TRUST-throw") {
            EXPECT_TRUE(f.baselined);
            sawBaselined = true;
        }
    }
    EXPECT_TRUE(sawBaselined);
    const FindingCounts counts = countFindings(report);
    EXPECT_EQ(counts.baselined, 1);
    EXPECT_EQ(counts.active, 34);
    EXPECT_TRUE(report.staleBaseline.empty());
}

TEST(LintBaseline, UnmatchedEntriesReportAsStale)
{
    auto parsed = parseBaseline(
        "# why: points at a line nobody has anymore.\n"
        "DET-clock|src/core/clean.cc|auto t = steady_clock::now();\n");
    ASSERT_TRUE(parsed.ok());
    const LintReport report = lintCorpus(parsed.take());
    ASSERT_EQ(report.staleBaseline.size(), 1u);
    EXPECT_EQ(report.staleBaseline[0].rule, "DET-clock");
    EXPECT_EQ(countFindings(report).baselined, 0);
}

TEST(LintBaseline, RejectsEntriesWithoutTheThreeFields)
{
    EXPECT_FALSE(parseBaseline("DET-clock only-two|fields\n").ok());
    EXPECT_FALSE(parseBaseline("a||b\n").ok());
    const auto st = parseBaseline("garbage\n").status();
    EXPECT_EQ(st.kind(), ErrorKind::ParseError);
    EXPECT_EQ(st.line(), 1);
}

TEST(LintBaseline, TracksJustificationPerCommentBlock)
{
    auto parsed = parseBaseline(
        "# why: the first block is justified.\n"
        "DET-clock|a.cc|x\n"
        "\n"
        "# a comment that is not a justification\n"
        "DET-rand|b.cc|y\n");
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value().entries.size(), 2u);
    EXPECT_TRUE(parsed.value().entries[0].justified);
    EXPECT_FALSE(parsed.value().entries[1].justified);
}

TEST(LintBaseline, SquashNormalizesWhitespaceOnly)
{
    EXPECT_EQ(squashWhitespace("  a\tb   c  "), "a b c");
    EXPECT_EQ(squashWhitespace("abc"), "abc");
    EXPECT_EQ(squashWhitespace("   "), "");
}

TEST(LintReportFormat, JsonCarriesTheDocumentedSchema)
{
    const std::string json = formatJson(lintCorpus());
    EXPECT_EQ(json.substr(0, 25), "{\"version\":1,\"findings\":[");
    EXPECT_NE(json.find("\"rule\":\"DET-rand\""), std::string::npos);
    EXPECT_NE(json.find("\"file\":\"src/core/det_rand_violation.cc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"counts\":{\"total\":37,\"active\":35,"
                        "\"baselined\":0,\"suppressed\":2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"filesScanned\":30"), std::string::npos);
    EXPECT_EQ(json.back(), '}');
}

TEST(LintReportFormat, HumanReportNamesFileLineAndRule)
{
    const std::string text = formatHuman(lintCorpus(), false);
    EXPECT_NE(text.find("src/core/trust_throw_violation.cc:"),
              std::string::npos);
    EXPECT_NE(text.find("[TRUST-throw]"), std::string::npos);
    // Suppressed findings are hidden unless asked for.
    EXPECT_EQ(text.find("src/core/suppressed.cc"), std::string::npos);
    EXPECT_NE(formatHuman(lintCorpus(), true)
                  .find("src/core/suppressed.cc"),
              std::string::npos);
}

TEST(LintCatalog, EveryEmittedRuleIsCatalogued)
{
    const LintReport report = lintCorpus();
    for (const Finding &f : report.findings) {
        bool known = false;
        for (const RuleInfo &info : ruleCatalog())
            known = known || f.rule == info.id;
        EXPECT_TRUE(known) << f.rule;
    }
}

TEST(LintCatalog, ExplicitPathLintsJustThatFile)
{
    auto report = lintFiles(
        kRoot, {"src/core/trust_throw_violation.cc"}, Baseline{});
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().filesScanned, 1);
    ASSERT_EQ(report.value().findings.size(), 1u);
    EXPECT_EQ(report.value().findings[0].rule, "TRUST-throw");
}

TEST(LintCatalog, MissingExplicitPathFailsLoudly)
{
    auto report =
        lintFiles(kRoot, {"src/core/no_such_file.cc"}, Baseline{});
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status().kind(), ErrorKind::IoError);
}

} // namespace
} // namespace amdahl::lint
