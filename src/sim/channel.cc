#include "sim/channel.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace coserve {

BandwidthChannel::BandwidthChannel(EventQueue &eq, std::string name,
                                   double bytesPerSecond, Time fixedLatency)
    : eq_(eq), name_(std::move(name)), bytesPerSecond_(bytesPerSecond),
      fixedLatency_(fixedLatency)
{
    COSERVE_CHECK(bytesPerSecond_ > 0, "channel ", name_,
                  " needs positive bandwidth");
    COSERVE_CHECK(fixedLatency_ >= 0, "negative channel latency");
}

Time
BandwidthChannel::transferDuration(std::int64_t bytes) const
{
    COSERVE_CHECK(bytes >= 0, "negative transfer size");
    // rateScale_ == 1.0 leaves the arithmetic bit-identical to the
    // unscaled expression (multiplying a double by 1.0 is exact).
    return fixedLatency_ +
           seconds(static_cast<double>(bytes) /
                   (bytesPerSecond_ * rateScale_));
}

void
BandwidthChannel::setRateScale(double scale)
{
    COSERVE_CHECK(scale > 0, "channel ", name_,
                  " rate scale must be > 0, got ", scale);
    rateScale_ = scale;
}

Time
BandwidthChannel::predictCompletion(std::int64_t bytes) const
{
    const Time start = std::max(eq_.now(), busyUntil_);
    return start + transferDuration(bytes);
}

Time
BandwidthChannel::transfer(std::int64_t bytes, EventQueue::Callback done)
{
    const Time completion = predictCompletion(bytes);
    busyUntil_ = completion;
    totalBytes_ += bytes;
    ++transfers_;
    eq_.schedule(completion, std::move(done));
    return completion;
}

} // namespace coserve
