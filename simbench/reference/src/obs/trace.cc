#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace coserve::obs {

namespace {

/** Append virtual @p t as exact microseconds ("12.345" for 12345 ns). */
void
appendTs(std::string &out, Time t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(t / 1000),
                  static_cast<long long>(t % 1000));
    out += buf;
}

void
appendEvent(std::string &out, const TraceEvent &e, std::int32_t pid,
            const std::vector<TraceArg> &args)
{
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"ts\":";
    appendTs(out, e.ts);
    if (e.ph == 'X') {
        out += ",\"dur\":";
        appendTs(out, e.durOrFlowId);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d", pid,
                  static_cast<int>(e.tid));
    out += buf;
    out += ",\"name\":\"";
    out += e.name;
    out += "\"";
    if (e.ph == 'i')
        out += ",\"s\":\"t\"";
    if (e.ph == 's' || e.ph == 'f') {
        std::snprintf(buf, sizeof(buf), ",\"id\":%lld",
                      static_cast<long long>(e.durOrFlowId));
        out += buf;
        if (e.ph == 'f')
            out += ",\"bp\":\"e\"";
    }
    if (e.argCount > 0) {
        out += ",\"args\":{";
        for (std::uint8_t i = 0; i < e.argCount; ++i) {
            const TraceArg &a = args[e.argStart + i];
            std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld",
                          i > 0 ? "," : "", a.key,
                          static_cast<long long>(a.value));
            out += buf;
        }
        out += "}";
    }
    out += "}";
}

void
appendMetadata(std::string &out, std::int32_t pid, std::int32_t tid,
               const char *what, const std::string &name, bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d,\"tid\":%d", pid, tid);
    out += "{\"ph\":\"M\",\"ts\":0.000,\"pid\":";
    out += buf;
    out += ",\"name\":\"";
    out += what;
    out += "\",\"args\":{\"name\":\"";
    out += name;
    out += "\"}}";
}

} // namespace

std::uint8_t
ReplicaTracer::pushArgs(TraceArg a0, TraceArg a1, TraceArg a2)
{
    // Call sites pass a contiguous prefix; the first null key ends it.
    if (a0.key == nullptr)
        return 0;
    args_.push_back(a0);
    if (a1.key == nullptr)
        return 1;
    args_.push_back(a1);
    if (a2.key == nullptr)
        return 2;
    args_.push_back(a2);
    return 3;
}

void
ReplicaTracer::span(const char *name, std::int32_t tid, Time start,
                    Time end, TraceArg a0, TraceArg a1, TraceArg a2)
{
    TraceEvent e;
    e.ts = start;
    e.durOrFlowId = end > start ? end - start : 0;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = 'X';
    e.name = name;
    e.argStart = static_cast<std::uint32_t>(args_.size());
    e.argCount = pushArgs(a0, a1, a2);
    events_.push_back(e);
}

void
ReplicaTracer::instant(const char *name, std::int32_t tid, Time ts,
                       TraceArg a0, TraceArg a1, TraceArg a2)
{
    TraceEvent e;
    e.ts = ts;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = 'i';
    e.name = name;
    e.argStart = static_cast<std::uint32_t>(args_.size());
    e.argCount = pushArgs(a0, a1, a2);
    events_.push_back(e);
}

void
ReplicaTracer::flow(const char *name, std::int32_t tid, Time ts,
                    std::int64_t id, bool start)
{
    TraceEvent e;
    e.ts = ts;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = start ? 's' : 'f';
    e.name = name;
    e.durOrFlowId = id;
    events_.push_back(e);
}

void
ReplicaTracer::setProcessName(const std::string &name)
{
    names_.push_back({-1, name});
}

void
ReplicaTracer::setThreadName(std::int32_t tid, const std::string &name)
{
    names_.push_back({tid, name});
}

Tracer::Tracer(int numPids)
{
    buffers_.reserve(static_cast<std::size_t>(numPids));
    for (int i = 0; i < numPids; ++i)
        buffers_.push_back(std::make_unique<ReplicaTracer>(i));
}

std::size_t
Tracer::eventCount() const
{
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->events_.size();
    return n;
}

std::string
Tracer::toJson() const
{
    // Merge in pid order, then stable-sort by virtual timestamp: each
    // replica's buffer already holds its own deterministic sequence,
    // so the merged order — and therefore the bytes — is independent
    // of how replica threads interleaved on the host.
    struct Row
    {
        const TraceEvent *e;
        const ReplicaTracer *buf;
    };
    std::vector<Row> merged;
    merged.reserve(eventCount());
    for (const auto &b : buffers_) {
        for (const TraceEvent &e : b->events_)
            merged.push_back({&e, b.get()});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Row &a, const Row &b) {
                         return a.e->ts < b.e->ts;
                     });

    std::string out;
    out.reserve(64 + merged.size() * 96);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    for (const auto &b : buffers_) {
        for (const auto &kv : b->names_) {
            if (kv.first < 0)
                appendMetadata(out, b->pid_, 0, "process_name",
                               kv.second, first);
            else
                appendMetadata(out, b->pid_, kv.first, "thread_name",
                               kv.second, first);
        }
    }
    for (const Row &row : merged) {
        if (!first)
            out += ",\n";
        first = false;
        appendEvent(out, *row.e, row.buf->pid_, row.buf->args_);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = toJson();
    const std::size_t wrote =
        std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return wrote == json.size();
}

} // namespace coserve::obs
