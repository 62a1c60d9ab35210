/**
 * @file
 * Virtual-time span tracer with Chrome trace-event JSON export.
 *
 * Spans carry the *simulated* clock (nanoseconds since run start), so
 * a trace is a deterministic artifact of the schedule: the same trace
 * and config produce byte-identical JSON regardless of host speed or
 * replica-thread parallelism. The export follows the Chrome
 * trace-event format (ph 'X' complete spans, 'i' instants, 's'/'f'
 * flow arrows, 'M' metadata) and loads directly in Perfetto /
 * chrome://tracing — replicas render as processes (the coordinator is
 * pid 0, replica i is pid i+1), executors as threads.
 *
 * Thread model: each replica records into its own ReplicaTracer
 * buffer, handed out *before* replica threads start, so threaded
 * static replicas never share a buffer. The final merge
 * concatenates buffers in pid order and stable-sorts by timestamp:
 * equal timestamps keep pid order, so the merge is deterministic.
 */

#ifndef COSERVE_OBS_TRACE_H
#define COSERVE_OBS_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/time.h"

namespace coserve::obs {

/**
 * One integer argument of a trace event. Keys must be string literals
 * (the tracer stores the pointer, not a copy); a null key means "no
 * argument". Args are held raw and rendered to JSON only at export:
 * recording stays allocation-free, which keeps the telemetry-on
 * events/s overhead inside its <5% budget.
 */
struct TraceArg
{
    const char *key = nullptr;
    std::int64_t value = 0;
};

/**
 * One trace event (Chrome trace-event JSON row). Deliberately packed
 * to 32 bytes: recording streams through the cache alongside the hot
 * simulation loop, so event size is the dominant term of the tracing
 * overhead. The owning buffer supplies the pid, 'X' duration and
 * 's'/'f' flow id share a slot, and args live out-of-line in the
 * buffer's side array ([argStart, argStart+argCount)).
 */
struct TraceEvent
{
    Time ts = 0;
    /** Duration for 'X' events; flow id for 's'/'f'. */
    std::int64_t durOrFlowId = 0;
    const char *name = "";
    /** First arg index in the owning buffer's arg array. */
    std::uint32_t argStart = 0;
    std::uint16_t tid = 0;
    std::uint8_t argCount = 0;
    /** 'X' complete, 'i' instant, 's'/'f' flow start/finish. */
    char ph = 'X';
};

static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent is sized for recording throughput");

/**
 * Per-replica event buffer. Owned by the Tracer; each replica thread
 * writes only its own instance, so recording needs no locks.
 */
class ReplicaTracer
{
  public:
    explicit ReplicaTracer(std::int32_t pid) : pid_(pid)
    {
        // Growing from empty costs ~10x per event (repeated doubling
        // reallocs land above the allocator's mmap threshold, so every
        // growth re-faults fresh pages); one up-front reservation keeps
        // recording inside the <5% events/s overhead budget. Buffers
        // exist only while tracing is enabled.
        events_.reserve(kInitialEventCapacity);
        args_.reserve(kInitialEventCapacity);
    }

    /** Complete span [@p start, @p end] on thread @p tid. */
    void span(const char *name, std::int32_t tid, Time start, Time end,
              TraceArg a0 = {}, TraceArg a1 = {}, TraceArg a2 = {});

    /** Instant event at @p ts on thread @p tid. */
    void instant(const char *name, std::int32_t tid, Time ts,
                 TraceArg a0 = {}, TraceArg a1 = {}, TraceArg a2 = {});

    /** Flow arrow endpoint (@p start: 's' origin, else 'f' target). */
    void flow(const char *name, std::int32_t tid, Time ts,
              std::int64_t id, bool start);

    /** Name this process (pid) in the viewer. */
    void setProcessName(const std::string &name);

    /** Name thread @p tid of this process in the viewer. */
    void setThreadName(std::int32_t tid, const std::string &name);

    std::int32_t pid() const { return pid_; }
    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t eventCount() const { return events_.size(); }

  private:
    friend class Tracer;

    static constexpr std::size_t kInitialEventCapacity = 8192;

    /** Append the used prefix of @p a0..a2 to args_; @return count. */
    std::uint8_t pushArgs(TraceArg a0, TraceArg a1, TraceArg a2);

    std::int32_t pid_;
    std::vector<TraceEvent> events_;
    /** Out-of-line event args; see TraceEvent::argStart/argCount. */
    std::vector<TraceArg> args_;
    /** (tid, name) metadata; tid -1 names the process itself. */
    std::vector<std::pair<std::int32_t, std::string>> names_;
};

/**
 * Trace collector: owns one ReplicaTracer per pid, merges and writes
 * Chrome trace-event JSON.
 */
class Tracer
{
  public:
    /** Create buffers for pids [0, @p numPids) up front. */
    explicit Tracer(int numPids);

    /** @return the buffer for @p pid (stable across the run). */
    ReplicaTracer *replica(int pid) { return buffers_[pid].get(); }

    int numPids() const { return static_cast<int>(buffers_.size()); }

    /** Total events recorded across all buffers. */
    std::size_t eventCount() const;

    /**
     * Render the merged trace as Chrome trace-event JSON. Metadata
     * first (pid, then tid order), then events stable-sorted by
     * virtual timestamp (ties keep pid/record order). Timestamps are
     * printed as microseconds with nanosecond decimals, so the text is
     * exact and byte-stable.
     */
    std::string toJson() const;

    /** Write toJson() to @p path; @return success. */
    bool writeFile(const std::string &path) const;

  private:
    std::vector<std::unique_ptr<ReplicaTracer>> buffers_;
};

} // namespace coserve::obs

#endif // COSERVE_OBS_TRACE_H
