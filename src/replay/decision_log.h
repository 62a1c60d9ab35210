/**
 * @file
 * Compact binary log of cluster-coordinator decisions.
 *
 * Every choice the cluster coordinator makes — routing an arrival,
 * rejecting or downgrading it, stealing, scaling, evacuating, applying
 * a fault — is appended as one DecisionRecord and folded into an
 * incrementally-maintained 64-bit *semantic digest*. The digest rides
 * in ClusterResult and BENCH JSON, so CI can diff whole coordinator
 * schedules across builds and compilers with one integer compare —
 * strictly stronger than comparing a handful of aggregate sim metrics.
 *
 * The log serializes to a versioned varint-encoded byte stream
 * ("CSRL" magic): record times are delta-encoded (the stream is
 * virtual-time ordered), payloads are LEB128, and a trailing digest
 * detects truncation or tampering on load. Format version 2 added the
 * preemption/checkpoint/migration kinds (Preempt..Migrate); v1 logs
 * are rejected with an explicit version message — re-record them. Replay mode walks a loaded
 * log alongside a re-execution and hard-fails on the first divergence
 * (time + kind + payload), giving a bisectable witness for any
 * nondeterminism regression.
 *
 * Everything here is pure 64-bit integer arithmetic: digests are
 * bit-identical across compilers, optimization levels and sanitizers.
 */

#ifndef COSERVE_REPLAY_DECISION_LOG_H
#define COSERVE_REPLAY_DECISION_LOG_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace coserve {

/** What kind of coordinator decision a record captures. */
enum class DecisionKind : std::uint8_t
{
    /** Arrival `a` routed to replica `b`. */
    Route = 0,
    /** Arrival `a` of class `b` rejected by cluster admission. */
    Reject = 1,
    /** Arrival `a` of class `b` downgraded to best-effort. */
    Downgrade = 2,
    /** `c` requests stolen from replica `a` by replica `b`. */
    Steal = 3,
    /** Replica `a` activated by the autoscaler. */
    ScaleUp = 4,
    /** Replica `a` quiesced by the autoscaler. */
    Quiesce = 5,
    /** Evacuation chunk: `c` requests moved from `a` to `b`. */
    Evacuate = 6,
    /** Replica `a` crashed; `b` requests drained, `c` lost. */
    Crash = 7,
    /** Replica `a` starts running `b` ppm slower (straggler). */
    StragglerOn = 8,
    /** Replica `a` returns to full speed. */
    StragglerOff = 9,
    /** Replica `a`'s storage drops to `b` ppm of its bandwidth. */
    BrownoutOn = 10,
    /** Replica `a`'s storage bandwidth restored. */
    BrownoutOff = 11,
    // ----- log format v2: preemption / checkpoint / migration --------
    /** Replica `a` executor `b` preempted a running group of `c`. */
    Preempt = 12,
    /** Replica `a` executor `b` checkpointed an in-flight group of `c`. */
    Checkpoint = 13,
    /** Replica `a` executor `b` restored a checkpointed group of `c`. */
    Restore = 14,
    /** Checkpointed in-flight group of `c` migrated from `a` to `b`. */
    Migrate = 15,
};

/** @return display name of @p kind. */
const char *toString(DecisionKind kind);

/** One coordinator decision (payload meaning depends on kind). */
struct DecisionRecord
{
    Time time = 0;
    DecisionKind kind = DecisionKind::Route;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;

    bool
    operator==(const DecisionRecord &o) const
    {
        return time == o.time && kind == o.kind && a == o.a &&
               b == o.b && c == o.c;
    }
    bool operator!=(const DecisionRecord &o) const { return !(*this == o); }
};

/** Render @p rec as "t=... kind a b c" for divergence diagnostics. */
std::string toString(const DecisionRecord &rec);

/** Append-only decision log with an incremental semantic digest. */
class DecisionLog
{
  public:
    /** Append one record, folding it into the digest. */
    void append(const DecisionRecord &rec);

    /** Pre-size for @p n records (a known-length stream). */
    void reserve(std::size_t n) { records_.reserve(n); }

    /** @return records in append order. */
    const std::vector<DecisionRecord> &records() const { return records_; }

    /** @return number of records. */
    std::size_t size() const { return records_.size(); }

    /**
     * 64-bit semantic digest over (time, kind, a, b, c) of every record
     * in order. Encoding-independent: two logs with equal records have
     * equal digests regardless of how they were serialized.
     */
    std::uint64_t digest() const { return digest_; }

    /** Serialize: header, varint records, trailing digest. */
    std::vector<std::uint8_t> encode() const;

    /**
     * Parse an encoded log; fatal() on bad magic, unknown version,
     * truncation, or a trailing digest that does not match the decoded
     * records (corruption / tampering).
     */
    static DecisionLog decode(const std::vector<std::uint8_t> &bytes);

    /** Write the encoded log to @p path; fatal() on I/O failure. */
    void save(const std::string &path) const;

    /** Read and decode @p path; fatal() on I/O or format errors. */
    static DecisionLog load(const std::string &path);

  private:
    std::vector<DecisionRecord> records_;
    std::uint64_t digest_ = kDigestSeed;

    /** Non-zero seed so an empty log has a recognizable digest. */
    static constexpr std::uint64_t kDigestSeed = 0xC05E7E5EED0501ull;
};

/**
 * Coordinator-side decision stream: always accumulates records and the
 * digest; in replay mode additionally verifies each decision against a
 * reference log and fatal()s on the first divergence.
 */
class DecisionTrace
{
  public:
    /** Start verifying against @p reference (must outlive this). */
    void beginReplay(const DecisionLog *reference) { replay_ = reference; }

    /** Record one decision; in replay mode verify it first. */
    void note(const DecisionRecord &rec);

    /** Pre-size the log for @p n decisions. */
    void reserve(std::size_t n) { log_.reserve(n); }

    /** Replay-mode epilogue: the whole reference must be consumed. */
    void finish() const;

    /** @return the accumulated log. */
    const DecisionLog &log() const { return log_; }

  private:
    DecisionLog log_;
    const DecisionLog *replay_ = nullptr;
    std::size_t cursor_ = 0;
};

} // namespace coserve

#endif // COSERVE_REPLAY_DECISION_LOG_H
