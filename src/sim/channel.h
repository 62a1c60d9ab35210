/**
 * @file
 * Bandwidth channel: a serialized transfer resource.
 *
 * Models one I/O path of the device (SSD read path, PCIe link, UMA
 * framework reorganization path). Transfers occupy the channel
 * back-to-back in FIFO order; each transfer takes
 *
 *     duration = fixedLatency + bytes / bandwidth
 *
 * Contention between executors loading experts concurrently therefore
 * emerges naturally: the second load starts when the first finishes,
 * as on a real shared SSD / PCIe link.
 */

#ifndef COSERVE_SIM_CHANNEL_H
#define COSERVE_SIM_CHANNEL_H

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/event_queue.h"
#include "util/time.h"

namespace coserve {

/** FIFO bandwidth resource attached to an EventQueue. */
class BandwidthChannel
{
  public:
    /**
     * @param eq event queue driving the simulation.
     * @param name diagnostic name (e.g. "numa.ssd").
     * @param bytesPerSecond sustained bandwidth; must be > 0.
     * @param fixedLatency per-transfer setup latency (>= 0).
     */
    BandwidthChannel(EventQueue &eq, std::string name,
                     double bytesPerSecond, Time fixedLatency = 0);

    /**
     * Enqueue a transfer of @p bytes; @p done runs at completion time.
     * The callback only needs to be movable (it is handed straight to
     * the event queue without re-wrapping).
     *
     * @return the predicted completion time.
     */
    Time transfer(std::int64_t bytes, EventQueue::Callback done);

    /** Pure prediction: completion time if a transfer were enqueued now. */
    Time predictCompletion(std::int64_t bytes) const;

    /** Duration of an uncontended transfer of @p bytes. */
    Time transferDuration(std::int64_t bytes) const;

    /** @return time at which the channel becomes idle. */
    Time busyUntil() const { return std::max(eq_.now(), busyUntil_); }

    /** @return total bytes ever transferred. */
    std::int64_t bytesTransferred() const { return totalBytes_; }

    /** @return number of transfers completed or in flight. */
    std::uint64_t transfers() const { return transfers_; }

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /**
     * Scale the channel's effective bandwidth for *future* transfers
     * (fault injection: a storage brownout delivers a fraction of the
     * provisioned bandwidth). In-flight transfers keep the rate they
     * started with. @p scale must be > 0; 1.0 restores full speed.
     */
    void setRateScale(double scale);

    /** @return the current bandwidth scale (1.0 = nominal). */
    double rateScale() const { return rateScale_; }

  private:
    EventQueue &eq_;
    std::string name_;
    double bytesPerSecond_;
    Time fixedLatency_;
    /** Fault-injection bandwidth multiplier (brownouts). */
    double rateScale_ = 1.0;
    Time busyUntil_ = 0;
    std::int64_t totalBytes_ = 0;
    std::uint64_t transfers_ = 0;
};

} // namespace coserve

#endif // COSERVE_SIM_CHANNEL_H
