#include "model/architecture.h"

#include "util/logging.h"

namespace coserve {

namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

ArchSpec
make(ArchId id, const char *name, double mParams, double gflops)
{
    ArchSpec a;
    a.id = id;
    a.name = name;
    a.params = static_cast<std::int64_t>(mParams * 1e6);
    a.weightBytes = a.params * 4; // fp32
    // Round up to transfer granularity (serialization framing).
    a.weightBytes = (a.weightBytes + kMiB - 1) / kMiB * kMiB;
    a.gflopsPerImage = gflops;
    return a;
}

} // namespace

const ArchSpec &
resnet101()
{
    static const ArchSpec a = make(ArchId::ResNet101, "ResNet101",
                                   44.5, 7.8);
    return a;
}

const ArchSpec &
yolov5m()
{
    static const ArchSpec a = make(ArchId::YoloV5m, "YOLOv5m", 21.2, 49.0);
    return a;
}

const ArchSpec &
yolov5l()
{
    static const ArchSpec a = make(ArchId::YoloV5l, "YOLOv5l", 46.5, 109.1);
    return a;
}

const ArchSpec &
archSpec(ArchId id)
{
    switch (id) {
      case ArchId::ResNet101:
        return resnet101();
      case ArchId::YoloV5m:
        return yolov5m();
      case ArchId::YoloV5l:
        return yolov5l();
      default:
        panic("archSpec(Custom) has no built-in spec");
    }
}

} // namespace coserve
