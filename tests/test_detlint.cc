/**
 * @file
 * Determinism-linter tests: every rule fires on a known-bad fixture
 * snippet exactly where expected, every escape hatch works (and is
 * itself policed), and the allowlisted quarantine files are exempt.
 *
 * The fixtures deliberately contain the forbidden tokens — this file
 * lives in tests/, outside detlint's src/ scan root.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "detlint/detlint.h"

namespace {

using detlint::Allow;
using detlint::Context;
using detlint::Finding;
using detlint::Rule;
using detlint::ScanResult;

/** Scan @p text as @p path with an (optionally pre-seeded) context. */
ScanResult
scan(const std::string &path, const std::string &text,
     Context ctx = {})
{
    detlint::collectUnorderedNames(text, ctx);
    ScanResult out;
    detlint::scanSource(path, text, ctx, out);
    return out;
}

/** Violations of @p rule, as (line) list. */
std::vector<int>
linesOf(const ScanResult &r, Rule rule)
{
    std::vector<int> lines;
    for (const Finding &f : r.violations) {
        if (f.rule == rule)
            lines.push_back(f.line);
    }
    return lines;
}

// ---------------------------------------------------------------- rules

TEST(Detlint, WallclockFiresOnHostClockReads)
{
    const ScanResult r = scan("src/runtime/engine.cc",
                              "int a;\n"
                              "auto t0 = std::chrono::steady_clock::now();\n"
                              "auto t1 = system_clock::now();\n"
                              "time_t t2 = time(nullptr);\n");
    EXPECT_EQ(linesOf(r, Rule::Wallclock),
              (std::vector<int>{2, 3, 4}));
}

TEST(Detlint, WallclockExemptInQuarantineFile)
{
    const ScanResult r =
        scan("src/util/walltime.h",
             "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.violations.empty());
}

TEST(Detlint, WallclockIgnoresCommentsAndStrings)
{
    const ScanResult r = scan(
        "src/a.cc",
        "// steady_clock is banned here\n"
        "const char *msg = \"system_clock::now()\";\n"
        "/* time(nullptr) in a block comment\n"
        "   still time(nullptr) */ int x = 0;\n");
    EXPECT_TRUE(r.violations.empty()) << "comments/strings must not fire";
}

TEST(Detlint, RngFiresOutsideRngUtil)
{
    const ScanResult r = scan("src/workload/generator.cc",
                              "int a = rand();\n"
                              "std::random_device rd;\n"
                              "std::mt19937 gen(rd());\n"
                              "std::uniform_int_distribution<int> d(0, 9);\n");
    // Line 3 matches mt19937; line 4 matches *_distribution.
    EXPECT_EQ(linesOf(r, Rule::Rng), (std::vector<int>{1, 2, 3, 4}));
}

TEST(Detlint, RngExemptInRngUtil)
{
    for (const char *path : {"src/util/rng.h", "src/util/rng.cc"}) {
        const ScanResult r = scan(path, "std::mt19937 gen(42);\n");
        EXPECT_TRUE(r.violations.empty()) << path;
    }
}

TEST(Detlint, UnorderedIterFiresOnRangeForOverDeclaredName)
{
    const ScanResult r =
        scan("src/a.cc",
             "std::unordered_map<int, int> counts_;\n"
             "void f() {\n"
             "    for (const auto &[k, v] : counts_) { use(k, v); }\n"
             "}\n");
    EXPECT_EQ(linesOf(r, Rule::UnorderedIter), (std::vector<int>{3}));
}

TEST(Detlint, UnorderedIterResolvesAccessorsAcrossFiles)
{
    // entries() is declared unordered in one file, iterated in another
    // — the shared Context carries the name across.
    Context ctx;
    detlint::collectUnorderedNames(
        "const std::unordered_map<int, Entry> &entries() const;\n",
        ctx);
    ScanResult r;
    detlint::scanSource("src/b.cc",
                        "for (const auto &[id, e] : pool->entries()) {\n"
                        "}\n",
                        ctx, r);
    EXPECT_EQ(linesOf(r, Rule::UnorderedIter), (std::vector<int>{1}));
}

TEST(Detlint, UnorderedIterIgnoresOrderedAndClassicLoops)
{
    const ScanResult r =
        scan("src/a.cc",
             "std::map<int, int> ordered_;\n"
             "std::unordered_map<int, int> counts_;\n"
             "void f() {\n"
             "    for (const auto &[k, v] : ordered_) { use(k, v); }\n"
             "    for (int i = 0; i < 4; ++i) { use(i, counts_[i]); }\n"
             "}\n");
    EXPECT_TRUE(linesOf(r, Rule::UnorderedIter).empty());
}

TEST(Detlint, UnorderedDeclFiresOnlyInDigestAffectingPaths)
{
    const std::string decl = "std::unordered_map<int, int> byName_;\n";
    EXPECT_EQ(linesOf(scan("src/metrics/report.cc", decl),
                      Rule::UnorderedDecl),
              (std::vector<int>{1}));
    EXPECT_EQ(linesOf(scan("src/replay/decision_log.cc", decl),
                      Rule::UnorderedDecl),
              (std::vector<int>{1}));
    EXPECT_TRUE(linesOf(scan("src/runtime/pool.cc", decl),
                        Rule::UnorderedDecl)
                    .empty());
}

TEST(Detlint, PtrKeyFiresOnPointerKeyedContainers)
{
    const ScanResult r =
        scan("src/a.cc",
             "std::map<Executor *, int> byExec_;\n"
             "std::set<const Node*> seen_;\n"
             "std::map<int, Executor *> fine_;\n"
             "std::map<std::pair<ArchId, ProcKind>, int> alsoFine_;\n");
    EXPECT_EQ(linesOf(r, Rule::PtrKey), (std::vector<int>{1, 2}));
}

TEST(Detlint, FloatAccumFiresOnUnorderedReductions)
{
    const ScanResult r = scan(
        "src/a.cc",
        "double s = std::reduce(v.begin(), v.end(), 0.0);\n"
        "double t = std::transform_reduce(v.begin(), v.end(), 0.0);\n"
        "std::sort(std::execution::par, v.begin(), v.end());\n"
        "#pragma omp parallel for reduction(+ : sum)\n"
        "double u = std::accumulate(v.begin(), v.end(), 0.0);\n");
    // accumulate is sequential left-fold — deterministic, not flagged.
    EXPECT_EQ(linesOf(r, Rule::FloatAccum),
              (std::vector<int>{1, 2, 3, 4}));
}

// ---------------------------------------------------------- escape hatch

TEST(Detlint, AllowOnSameLineSuppressesAndIsCounted)
{
    const ScanResult r = scan(
        "src/a.cc",
        "auto t = steady_clock::now(); // detlint:allow(wallclock) "
        "host-only diagnostic, never feeds results\n");
    EXPECT_TRUE(r.violations.empty());
    ASSERT_EQ(r.allows.size(), 1u);
    EXPECT_EQ(r.allows[0].rule, Rule::Wallclock);
    EXPECT_EQ(r.allows[0].justification,
              "host-only diagnostic, never feeds results");
}

TEST(Detlint, AllowOnLineAboveSuppresses)
{
    const ScanResult r =
        scan("src/a.cc",
             "// detlint:allow(rng) fixture generator, output unused\n"
             "std::mt19937 gen(7);\n");
    EXPECT_TRUE(r.violations.empty());
    ASSERT_EQ(r.allows.size(), 1u);
    EXPECT_EQ(r.allows[0].line, 2);
}

TEST(Detlint, AllowForWrongRuleDoesNotSuppress)
{
    const ScanResult r =
        scan("src/a.cc",
             "// detlint:allow(rng) wrong rule\n"
             "auto t = steady_clock::now();\n");
    EXPECT_EQ(linesOf(r, Rule::Wallclock), (std::vector<int>{2}));
    // ... and the allow is stale (suppresses nothing).
    EXPECT_EQ(linesOf(r, Rule::BadAllow), (std::vector<int>{1}));
}

TEST(Detlint, UnjustifiedAllowIsAViolation)
{
    const ScanResult r =
        scan("src/a.cc",
             "auto t = steady_clock::now(); // detlint:allow(wallclock)\n");
    // The naked allow both fails to suppress and is flagged itself.
    EXPECT_EQ(linesOf(r, Rule::Wallclock), (std::vector<int>{1}));
    EXPECT_EQ(linesOf(r, Rule::BadAllow), (std::vector<int>{1}));
    EXPECT_TRUE(r.allows.empty());
}

TEST(Detlint, UnknownRuleAllowIsAViolation)
{
    const ScanResult r = scan(
        "src/a.cc", "// detlint:allow(no-such-rule) whatever\n");
    EXPECT_EQ(linesOf(r, Rule::BadAllow), (std::vector<int>{1}));
}

TEST(Detlint, StaleAllowIsAViolation)
{
    const ScanResult r = scan(
        "src/a.cc",
        "// detlint:allow(wallclock) nothing here needs this\n"
        "int x = 0;\n");
    EXPECT_EQ(linesOf(r, Rule::BadAllow), (std::vector<int>{1}));
}

// ------------------------------------------------------------- reporting

TEST(Detlint, JsonReportCarriesCountsViolationsAndAllows)
{
    const ScanResult r = scan(
        "src/a.cc",
        "auto t = steady_clock::now();\n"
        "std::mt19937 g(1); // detlint:allow(rng) test fixture seed\n");
    const std::string json = detlint::toJson(r);
    EXPECT_NE(json.find("\"violation_count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"allow_count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"wallclock\""), std::string::npos);
    EXPECT_NE(json.find("\"justification\": \"test fixture seed\""),
              std::string::npos);
}

TEST(Detlint, RuleNamesRoundTrip)
{
    for (Rule rule :
         {Rule::Wallclock, Rule::Rng, Rule::UnorderedIter,
          Rule::UnorderedDecl, Rule::PtrKey, Rule::FloatAccum}) {
        const auto parsed = detlint::parseRule(detlint::ruleName(rule));
        ASSERT_TRUE(parsed.has_value()) << detlint::ruleName(rule);
        EXPECT_EQ(*parsed, rule);
    }
    EXPECT_FALSE(detlint::parseRule("bad-allow").has_value())
        << "bad-allow is not allowable by design";
    EXPECT_FALSE(detlint::parseRule("").has_value());
}

// ------------------------------------------------------------- the tree

TEST(Detlint, RepoSourceTreeIsClean)
{
    // The real gate CI enforces: src/ scans clean from the repo root.
    // Skip quietly when the test runs from somewhere else (ctest runs
    // in build/, so probe both).
    ScanResult r;
    if (!detlint::scanTree("../src", r) &&
        !detlint::scanTree("src", r)) {
        GTEST_SKIP() << "src/ not reachable from test cwd";
    }
    for (const Finding &f : r.violations) {
        ADD_FAILURE() << f.file << ":" << f.line << " ["
                      << detlint::ruleName(f.rule) << "] " << f.message;
    }
    EXPECT_GT(r.filesScanned, 50);
}

} // namespace
