#include "unintt/config.hh"

#include <algorithm>
#include <sstream>

#include "util/bitops.hh"

namespace unintt {

unsigned
fusedTileLog2(size_t element_bytes)
{
    // Per-core fast-memory budget of the host cache model: 256 KiB.
    constexpr size_t kTileCacheBytes = 256ULL << 10;
    const unsigned t =
        log2Floor(kTileCacheBytes / std::max<size_t>(element_bytes, 1));
    return std::clamp(t, 4u, 20u);
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
       << " isa=" << isaPathName(isaPath)
       << " host-threads=";
    if (hostThreads == 0)
        os << "auto";
    else
        os << hostThreads;
    return os.str();
}

} // namespace unintt
