#include "unintt/config.hh"

#include <algorithm>
#include <sstream>

#include "util/bitops.hh"

namespace unintt {

namespace {

/**
 * Per-core fast-memory budget of the host cache model used to derive
 * the fused tile size: 256 KiB, the common private L2 slice. The host
 * analogue of sizing block tiles from the GPU's smem capacity.
 */
constexpr size_t kHostTileCacheBytes = 256ULL << 10;

constexpr unsigned kMinHostTileLog2 = 4;
constexpr unsigned kMaxHostTileLog2 = 20;

} // namespace

unsigned
UniNttConfig::resolvedHostTileLog2(size_t element_bytes,
                                   unsigned simd_lanes) const
{
    unsigned t = hostTileLog2;
    if (t == 0)
        t = log2Floor(kHostTileCacheBytes / std::max<size_t>(element_bytes, 1));
    // Lane-parallel kernel paths need the smallest fused spans to
    // still hold a few full vectors: raise the floor to 8 vectors'
    // worth of elements (lanes * 8). Scalar keeps the historic floor.
    unsigned min_t = kMinHostTileLog2;
    if (simd_lanes > 1)
        min_t = std::max(min_t, log2Floor(simd_lanes) + 3);
    return std::clamp(t, std::min(min_t, kMaxHostTileLog2),
                      kMaxHostTileLog2);
}

std::string
UniNttConfig::toString() const
{
    auto onoff = [](bool b) { return b ? "on" : "off"; };
    std::ostringstream os;
    os << "fuse=" << onoff(fuseTwiddles)
       << " otf-twiddle=" << onoff(onTheFlyTwiddles)
       << " pad-smem=" << onoff(paddedSmem)
       << " warp-shfl=" << onoff(warpShuffle)
       << " overlap=" << onoff(overlapComm)
       << " fuse-local=" << onoff(fuseLocalPasses)
       << " host-tile=";
    if (hostTileLog2 == 0)
        os << "auto";
    else
        os << hostTileLog2;
    os << " radix=r" << (1u << std::clamp(fusedRadixLog2, 1u, 3u))
       << " tune-db=" << (useTuneDb ? "on" : "off")
       << " isa=" << isaPathName(isaPath)
       << " host-threads=";
    if (hostThreads == 0)
        os << "auto";
    else
        os << hostThreads;
    return os.str();
}

} // namespace unintt
