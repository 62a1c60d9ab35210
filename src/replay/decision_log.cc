#include "replay/decision_log.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace coserve {

namespace {

// ----- digest ---------------------------------------------------------
//
// splitmix64 finalizer: a full-avalanche 64-bit mix using only integer
// multiplies, shifts and xors — bit-identical on every platform. Each
// field is mixed before being folded so that permuting fields (or
// records) changes the digest.

inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

inline std::uint64_t
foldField(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ mix64(v));
}

// ----- varint codec ---------------------------------------------------

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (pos >= in.size())
            fatal("decision log truncated");
        const std::uint8_t byte = in[pos++];
        if (shift >= 64)
            fatal("decision log varint overflow");
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
    }
}

/** Zigzag: signed time deltas to unsigned varints. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

constexpr std::uint8_t kMagic[4] = {'C', 'S', 'R', 'L'};
// v1: PR 6 kinds Route..BrownoutOff. v2: + Preempt..Migrate.
constexpr std::uint8_t kVersion = 2;

constexpr Time kTimeMax = std::numeric_limits<Time>::max();
constexpr Time kTimeMin = std::numeric_limits<Time>::min();

} // namespace

const char *
toString(DecisionKind kind)
{
    switch (kind) {
    case DecisionKind::Route: return "route";
    case DecisionKind::Reject: return "reject";
    case DecisionKind::Downgrade: return "downgrade";
    case DecisionKind::Steal: return "steal";
    case DecisionKind::ScaleUp: return "scale-up";
    case DecisionKind::Quiesce: return "quiesce";
    case DecisionKind::Evacuate: return "evacuate";
    case DecisionKind::Crash: return "crash";
    case DecisionKind::StragglerOn: return "straggler-on";
    case DecisionKind::StragglerOff: return "straggler-off";
    case DecisionKind::BrownoutOn: return "brownout-on";
    case DecisionKind::BrownoutOff: return "brownout-off";
    case DecisionKind::Preempt: return "preempt";
    case DecisionKind::Checkpoint: return "checkpoint";
    case DecisionKind::Restore: return "restore";
    case DecisionKind::Migrate: return "migrate";
    }
    return "?";
}

std::string
toString(const DecisionRecord &rec)
{
    std::ostringstream os;
    os << "t=" << rec.time << " " << toString(rec.kind) << " a=" << rec.a
       << " b=" << rec.b << " c=" << rec.c;
    return os.str();
}

std::uint64_t
DecisionLog::fold(std::uint64_t digest, const DecisionRecord &rec)
{
    digest = foldField(digest, static_cast<std::uint64_t>(rec.time));
    digest = foldField(digest, static_cast<std::uint64_t>(rec.kind));
    digest = foldField(digest, rec.a);
    digest = foldField(digest, rec.b);
    return foldField(digest, rec.c);
}

void
DecisionLog::append(const DecisionRecord &rec)
{
    digest_ = fold(digest_, rec);
    records_.push_back(rec);
}

std::vector<std::uint8_t>
DecisionLog::encode() const
{
    std::vector<std::uint8_t> out;
    out.reserve(16 + records_.size() * 6);
    for (std::uint8_t m : kMagic)
        out.push_back(m);
    out.push_back(kVersion);
    putVarint(out, records_.size());
    Time last = 0;
    for (const DecisionRecord &rec : records_) {
        putVarint(out, zigzag(rec.time - last));
        last = rec.time;
        out.push_back(static_cast<std::uint8_t>(rec.kind));
        putVarint(out, rec.a);
        putVarint(out, rec.b);
        putVarint(out, rec.c);
    }
    // Trailing digest (little-endian): load-time integrity check.
    std::uint64_t d = digest_;
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(d));
        d >>= 8;
    }
    return out;
}

DecisionLog
DecisionLog::decode(const std::vector<std::uint8_t> &bytes)
{
    // Malformed input is a user error: every reject below is fatal()
    // (exit 1), never a panic or undefined behaviour.
    std::size_t pos = 0;
    if (bytes.size() < 5)
        fatal("decision log too short");
    for (int i = 0; i < 4; ++i) {
        if (bytes[i] != kMagic[i])
            fatal("not a decision log (bad magic)");
    }
    pos = 4;
    if (bytes[pos] != kVersion) {
        // Spelled out so replay_tool surfaces an actionable error on a
        // stale log (e.g. a PR 6-era v1 recording) instead of a generic
        // fatal: the fix is to re-record, not to debug a divergence.
        fatal("decision log format version ",
              static_cast<int>(bytes[pos]), ", expected ",
              static_cast<int>(kVersion),
              " — re-record the log with this build");
    }
    ++pos;

    DecisionLog log;
    const std::uint64_t count = getVarint(bytes, pos);
    Time last = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        DecisionRecord rec;
        const std::int64_t delta = unzigzag(getVarint(bytes, pos));
        if (delta > 0 ? last > kTimeMax - delta : last < kTimeMin - delta)
            fatal("decision log record ", i, " time overflows");
        rec.time = last + delta;
        last = rec.time;
        if (pos >= bytes.size())
            fatal("decision log truncated");
        const std::uint8_t kind = bytes[pos++];
        if (kind > static_cast<std::uint8_t>(DecisionKind::Migrate))
            fatal("decision log record ", i, " has unknown kind ",
                  static_cast<int>(kind));
        rec.kind = static_cast<DecisionKind>(kind);
        rec.a = getVarint(bytes, pos);
        rec.b = getVarint(bytes, pos);
        rec.c = getVarint(bytes, pos);
        log.append(rec);
    }
    if (bytes.size() - pos < 8)
        fatal("decision log truncated");
    if (bytes.size() - pos > 8)
        fatal("decision log has ", bytes.size() - pos - 8,
              " trailing bytes after its digest");
    std::uint64_t stored = 0;
    for (int i = 7; i >= 0; --i)
        stored = (stored << 8) | bytes[pos + static_cast<std::size_t>(i)];
    if (stored != log.digest()) {
        fatal("decision log digest mismatch: stored 0x", std::hex,
              stored, " recomputed 0x", log.digest(),
              " — the log is corrupt or was edited");
    }
    return log;
}

void
DecisionLog::save(const std::string &path) const
{
    const std::vector<std::uint8_t> bytes = encode();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open decision log for writing: ", path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("short write to decision log: ", path);
}

DecisionLog
DecisionLog::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open decision log: ", path);
    // A directory opens without error and tellg() then reports a bogus
    // size: take the size from the file system, which refuses anything
    // but a regular file.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        fatal("decision log is not a regular file: ", path, " (",
              ec.message(), ")");
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0) {
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(size));
    }
    if (!in)
        fatal("short read from decision log: ", path);
    return decode(bytes);
}

void
DecisionTrace::note(const DecisionRecord &rec)
{
    noteDeferred(rec);
    check();
}

void
DecisionTrace::noteDeferred(const DecisionRecord &rec)
{
    if (replay_ != nullptr && divergence_.empty()) {
        if (cursor_ < replay_->size() && replay_->records()[cursor_] == rec) {
            ++cursor_;
        } else {
            std::ostringstream os;
            if (cursor_ >= replay_->size()) {
                os << "replay divergence: decision #" << cursor_
                   << " not in the log (got " << toString(rec)
                   << ", log ended after " << replay_->size()
                   << " records)";
            } else {
                os << "replay divergence at decision #" << cursor_
                   << ": got " << toString(rec) << ", log has "
                   << toString(replay_->records()[cursor_]);
            }
            divergence_ = os.str();
        }
    }
    digest_ = DecisionLog::fold(digest_, rec);
    ++count_;
    if (record_)
        log_.append(rec);
}

void
DecisionTrace::finish() const
{
    check();
    if (replay_ != nullptr && cursor_ != replay_->size()) {
        fatal("replay divergence: run ended after ", cursor_,
              " decisions but the log has ", replay_->size(),
              " (next logged: ",
              toString(replay_->records()[cursor_]), ")");
    }
}

const DecisionLog &
DecisionTrace::log() const
{
    COSERVE_CHECK(record_, "only a recording decision trace keeps its log");
    return log_;
}

} // namespace coserve
