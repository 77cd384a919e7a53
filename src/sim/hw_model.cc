#include "sim/hw_model.hh"

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "util/logging.hh"

namespace unintt {

// The slot costs below count the 64-bit multiply-issue slots one field
// operation occupies on a modern GPU core:
//  - Goldilocks: one 64x64->128 product (4 IMAD-equivalent slots on
//    32-bit hardware ~= 2 u64 slots) plus the special-form reduction.
//  - BabyBear: a single 32x32->64 product plus Montgomery folding fits
//    in roughly one u64 slot.
//  - BN254-Fr: 4x4-limb CIOS needs 32 64-bit products plus carries.
// Additions are carry chains without products.

template <>
FieldCost
fieldCostOf<Goldilocks>()
{
    return FieldCost{"Goldilocks", 3.0, 0.5, sizeof(Goldilocks)};
}

template <>
FieldCost
fieldCostOf<BabyBear>()
{
    return FieldCost{"BabyBear", 1.0, 0.25, sizeof(BabyBear)};
}

template <>
FieldCost
fieldCostOf<Bn254Fr>()
{
    return FieldCost{"BN254-Fr", 40.0, 4.0, 32};
}

template <>
FieldCost
fieldCostOf<Bn254Fq>()
{
    return FieldCost{"BN254-Fq", 40.0, 4.0, 32};
}

uint64_t
deviceFootprintBytes(
    const GpuModel &gpu,
    std::initializer_list<std::pair<const char *, uint64_t>> buffers)
{
    uint64_t used = 0;
    for (const auto &[tag, bytes] : buffers) {
        if (used + bytes > gpu.dramCapacityBytes)
            fatal("device 0 out of memory allocating %llu bytes for '%s' "
                  "(%llu of %llu in use)",
                  static_cast<unsigned long long>(bytes), tag,
                  static_cast<unsigned long long>(used),
                  static_cast<unsigned long long>(gpu.dramCapacityBytes));
        used += bytes;
    }
    return used;
}

GpuModel
makeA100()
{
    GpuModel m;
    m.name = "A100-SXM4-80GB";
    m.numSms = 108;
    m.clockHz = 1.41e9;
    m.u64MulsPerClockPerSm = 16.0;
    m.dramBandwidth = 2.039e12;
    m.dramLatency = 450e-9;
    m.dramCapacityBytes = 80ULL << 30;
    m.smemBytesPerBlock = 164 << 10;
    m.smemBytesPerClockPerSm = 128.0;
    m.kernelLaunchLatency = 5e-6;
    return m;
}

GpuModel
makeH100()
{
    GpuModel m;
    m.name = "H100-SXM5-80GB";
    m.numSms = 132;
    m.clockHz = 1.83e9;
    m.u64MulsPerClockPerSm = 16.0;
    m.dramBandwidth = 3.35e12;
    m.dramLatency = 420e-9;
    m.dramCapacityBytes = 80ULL << 30;
    m.smemBytesPerBlock = 228 << 10;
    m.smemBytesPerClockPerSm = 128.0;
    m.kernelLaunchLatency = 4e-6;
    return m;
}

GpuModel
makeRtx4090()
{
    GpuModel m;
    m.name = "RTX-4090";
    m.numSms = 128;
    m.clockHz = 2.52e9;
    m.u64MulsPerClockPerSm = 8.0; // consumer die, reduced int64 path
    m.dramBandwidth = 1.008e12;
    m.dramLatency = 500e-9;
    m.dramCapacityBytes = 24ULL << 30;
    m.smemBytesPerBlock = 100 << 10;
    m.smemBytesPerClockPerSm = 128.0;
    m.kernelLaunchLatency = 6e-6;
    return m;
}

GpuModel
gpuModelByName(const std::string &name)
{
    if (name == "a100")
        return makeA100();
    if (name == "h100")
        return makeH100();
    if (name == "rtx4090")
        return makeRtx4090();
    fatal("unknown GPU model '%s' (expected a100, h100, rtx4090)",
          name.c_str());
}

} // namespace unintt
