/**
 * @file
 * detlint — determinism lint for the CoServe tree.
 *
 * The repo's headline guarantee is bit-identical results and a stable
 * 64-bit decision digest across thread counts, compilers and standard
 * libraries (gcc records, clang + ASan replay). That guarantee is easy
 * to break silently: one wall-clock read in a decision path, one
 * iteration over an unordered container whose bucket order differs
 * between libstdc++ and libc++, one pointer-keyed ordered map. detlint
 * turns the determinism rules into a machine-checked gate instead of
 * tribal knowledge.
 *
 * It is a token-level scanner on purpose — no libclang dependency, so
 * it builds everywhere the tree builds and runs in milliseconds over
 * the whole of src/. The price is heuristic matching; the escape hatch
 * is a justified allow-comment, and the hatches themselves are counted
 * and reported:
 *
 *     // detlint:allow(<rule>) <justification>
 *
 * on the offending line or the line directly above it. An allow with
 * no justification, an unknown rule name, or one that suppresses
 * nothing is itself a violation (rule "bad-allow").
 *
 * Rules:
 *   wallclock        host-clock reads (steady_clock / system_clock /
 *                    time() / clock_gettime / ...) anywhere except the
 *                    quarantine file src/util/walltime.h. Simulated
 *                    time must come from the virtual clock.
 *   rng              raw randomness (rand / random_device / mt19937 /
 *                    *_distribution) outside src/util/rng.{h,cc};
 *                    std::mt19937 + std::*_distribution outputs are
 *                    implementation-defined across standard libraries.
 *   unordered-iter   range-for iteration over a variable or accessor
 *                    whose declared type is unordered_map / set: the
 *                    visit order is unspecified and differs across
 *                    standard libraries, so anything order-sensitive
 *                    derived from it (victim scans, serialization,
 *                    digests) diverges. Sort first, or justify why
 *                    order cannot leak out.
 *   unordered-decl   declaring an unordered container at all inside
 *                    digest-affecting directories (src/metrics/,
 *                    src/replay/) — those paths serialize results, so
 *                    even "harmless" unordered state is a hazard.
 *   ptr-key          std::map / std::set (or their unordered /
 *                    multi variants) keyed on a pointer type: pointer
 *                    values depend on the allocator, so ordered
 *                    iteration is a run-to-run coin flip.
 *   float-accum      unordered floating-point reduction primitives
 *                    (std::reduce / std::transform_reduce /
 *                    std::execution::par / omp reductions): FP
 *                    addition is not associative, so reduction order
 *                    changes the accumulated bits.
 *   bad-allow        malformed / unjustified / stale allow comments.
 */

#ifndef COSERVE_TOOLS_DETLINT_H
#define COSERVE_TOOLS_DETLINT_H

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace detlint {

/** Determinism rule identifiers. */
enum class Rule
{
    Wallclock,
    Rng,
    UnorderedIter,
    UnorderedDecl,
    PtrKey,
    FloatAccum,
    BadAllow,
};

/** Stable kebab-case name used in reports and allow comments. */
const char *ruleName(Rule rule);

/** Parse a rule name; nullopt for unknown names. */
std::optional<Rule> parseRule(const std::string &name);

/** One rule violation without a justifying allow comment. */
struct Finding
{
    std::string file;
    int line = 0;
    Rule rule = Rule::BadAllow;
    /** The offending source line, trimmed. */
    std::string snippet;
    std::string message;
};

/** One counted escape hatch: a justified allow comment in effect. */
struct Allow
{
    std::string file;
    int line = 0;
    Rule rule = Rule::BadAllow;
    std::string justification;
};

/** Aggregate result of a scan. */
struct ScanResult
{
    std::vector<Finding> violations;
    std::vector<Allow> allows;
    int filesScanned = 0;
};

/**
 * Cross-file scan context: identifiers declared (or returned by
 * accessors) as unordered containers anywhere in the tree, so a
 * range-for over an accessor such as `pool->entries()` is caught even
 * when the accessor is declared in another file.
 */
struct Context
{
    std::set<std::string> unorderedNames;
};

/** First pass: harvest unordered-container identifiers from @p text. */
void collectUnorderedNames(const std::string &text, Context &ctx);

/**
 * Scan one file's contents. @p path is used for reporting and for the
 * per-rule allowlists (walltime.h, rng.*) and digest-affecting
 * directory checks; it is matched by suffix so absolute and relative
 * invocations agree.
 */
void scanSource(const std::string &path, const std::string &text,
                const Context &ctx, ScanResult &out);

/**
 * Recursively scan every .h / .cc under @p root (two passes: name
 * collection, then rule matching). Appends into @p out and bumps
 * filesScanned.
 *
 * @return false when @p root does not exist.
 */
bool scanTree(const std::string &root, ScanResult &out);

/** Machine-readable findings (uploaded as a CI artifact). */
std::string toJson(const ScanResult &result);

/** Human-readable report; returns the number of violations. */
int printReport(const ScanResult &result);

} // namespace detlint

#endif // COSERVE_TOOLS_DETLINT_H
