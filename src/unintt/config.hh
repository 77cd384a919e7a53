/**
 * @file
 * Configuration of the UniNTT engine: the uniform optimization set.
 *
 * Each flag corresponds to one of the optimizations the paper designs
 * once against the abstract hardware model and then applies at every
 * hierarchy level. Turning a flag off reproduces the ablation
 * experiments (bench/fig11_ablation).
 */

#ifndef UNINTT_UNINTT_CONFIG_HH
#define UNINTT_UNINTT_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "field/isa.hh"
#include "sim/fault.hh"

namespace unintt {

/** Optimization toggles of the UniNTT engine. */
struct UniNttConfig
{
    /**
     * The overhead-free decomposition: fuse the inter-sub-NTT twiddle
     * multiplication into the butterflies of the adjacent sub-NTT.
     * When off, every decomposition boundary (cross-GPU -> local, and
     * every grid pass boundary) pays an explicit twiddle pass over the
     * whole dataset, exactly like the classic four-step algorithm.
     */
    bool fuseTwiddles = true;

    /**
     * Generate twiddles incrementally in registers instead of loading
     * a precomputed table through the memory hierarchy. Trades extra
     * multiplies for bandwidth; the same trade at every level.
     */
    bool onTheFlyTwiddles = true;

    /**
     * Resolve onTheFlyTwiddles from the abstract hardware model at
     * engine construction: generation wins on bandwidth-bound fields
     * (Goldilocks, BabyBear), tables win on compute-bound ones
     * (BN254-Fr). This is the paper's "design once against the
     * abstract model" story applied to the strategy choice itself.
     * Set to false to pin the flag manually (ablation studies do).
     */
    bool autoTuneTwiddles = true;

    /**
     * Pad the shared-memory tile layout so strided accesses hit
     * distinct banks. When off, tile exchanges pay bank-conflict
     * replays.
     */
    bool paddedSmem = true;

    /**
     * Use the register shuffle network for the warp-level sub-NTTs.
     * When off, warp-level stages round-trip through shared memory like
     * the block-level ones.
     */
    bool warpShuffle = true;

    /**
     * Double-buffer the inter-GPU exchanges so link transfers overlap
     * butterfly computation (and, one level down, smem prefetch
     * overlaps tile compute). When off, communication serializes with
     * computation.
     */
    bool overlapComm = true;

    /**
     * Pin the shared-memory block tile to 2^forceLogBlockTile elements
     * instead of the planner's capacity-derived choice. 0 = automatic.
     * Used by the tile-size sensitivity study (bench/fig16_tile_size).
     */
    unsigned forceLogBlockTile = 0;

    /**
     * Fuse consecutive local butterfly stages into cache-resident tile
     * groups on the host functional path (and FusedLocalPass steps in
     * the schedule IR): each 2^fusedTileLog2(element bytes)-element
     * tile is loaded once, all stages of the group run in-tile, and
     * the tile is written back once — one fork/join and one DRAM round
     * trip per group instead of per stage. The host-level analogue of
     * the paper's shared-memory stage fusion. Off reproduces the one-
     * pass-per-stage walk (ablation / differential baseline).
     */
    bool fuseLocalPasses = true;

    /**
     * No effect: engines never consult a tuning database. Kept only so
     * existing callers that still set it keep compiling.
     */
    bool useTuneDb = true;

    /**
     * Host acceleration path for the span kernels (field/dispatch.hh).
     * Auto probes the CPU and binds the best compiled-in path; the
     * UNINTT_FORCE_ISA environment variable overrides this field, and
     * unsupported requests fall back down the ladder to scalar. Every
     * path produces byte-identical outputs; this is purely a host
     * performance knob.
     */
    IsaPath isaPath = IsaPath::Auto;

    /**
     * Host threads allowed to execute the functional (bit-exact)
     * butterfly work of a transform. 0 = use every lane of the shared
     * pool (util/thread_pool.hh), 1 = serial. Purely a host-side knob:
     * outputs and every simulated counter are identical for all values
     * (simulated GPUs write disjoint chunks and every cross-GPU
     * exchange is a barrier).
     */
    unsigned hostThreads = 0;

    /** Human-readable on/off summary for reports. */
    std::string toString() const;

    /** All optimizations enabled (the paper's default). */
    static UniNttConfig allOn() { return UniNttConfig{}; }

    /** All optimizations disabled (decomposition still correct). */
    static UniNttConfig
    allOff()
    {
        UniNttConfig c;
        c.fuseTwiddles = false;
        c.onTheFlyTwiddles = false;
        c.autoTuneTwiddles = false;
        c.paddedSmem = false;
        c.warpShuffle = false;
        c.overlapComm = false;
        c.fuseLocalPasses = false;
        return c;
    }
};

/**
 * log2 of the tile fused local passes group their stages by, for
 * elements of @p element_bytes: the largest tile fitting a 256 KiB
 * per-core cache budget (the common private L2 slice), clamped to
 * [4, 20]. One fixed function of the element size — the host analogue
 * of sizing block tiles from the GPU's smem capacity — so no host
 * setting reaches the compiled schedule or its simulated timeline.
 */
unsigned fusedTileLog2(size_t element_bytes);

/**
 * Policy of the resilient execution paths
 * (UniNttEngine::forwardResilient / inverseResilient): how hard to
 * retry transient faults, how device loss is detected, and how much
 * post-transform spot checking to pay for. Orthogonal to UniNttConfig —
 * the optimization set is unchanged by resilience.
 */
struct ResilienceConfig
{
    /** Bounded exponential backoff for transient exchange faults. */
    RetryPolicy retry;

    /**
     * Time to declare a device permanently lost (heartbeat timeout)
     * before degraded-mode recovery starts.
     */
    double detectionSeconds = 1e-3;

    /**
     * Random output positions verified against a direct evaluation
     * after the transform (unintt/verify.hh). 0 disables the check and
     * the input snapshot it compares against.
     */
    unsigned spotChecks = 4;

    /**
     * Base seed of the spot-check position sampling. The engine
     * derives a fresh per-check seed from this base and a per-engine
     * check counter (util/checksum.hh mix64), so repeated checks of
     * the same transform sample fresh positions while the sequence
     * stays deterministic for a given engine and base seed.
     */
    uint64_t spotCheckSeed = 99;

    /**
     * Straggler watchdog: an exchange stretched beyond
     * watchdogDeadlineFactor x its fault-free time is aborted at the
     * deadline and retried once, converting an unbounded straggler
     * into a bounded, priced recovery (deadline + one clean
     * retransmission) counted in FaultStats::watchdogTimeouts.
     * 0 disables the watchdog (stragglers stretch exchanges without
     * bound, the pre-watchdog behavior).
     */
    double watchdogDeadlineFactor = 8.0;

    /**
     * Allow re-sharding onto the surviving power-of-two GPU subset
     * after a permanent device loss. When false, device loss is a
     * non-recoverable (but still non-fatal) DeviceLost status.
     */
    bool allowDegraded = true;

    /**
     * ABFT compute-path integrity: maintain a random-linear-combination
     * checksum per shard, update it analytically through every linear
     * step, compare after each compute step, and on mismatch localize
     * the corrupted tile via per-tile partial checksums and recompute
     * only that tile. Catches silent data corruption inside the
     * arithmetic (FaultModel::computeBitFlipRate), which exchange
     * checksums and spot checks cannot localize. Off trusts compute
     * outputs exactly as before this layer existed.
     */
    bool abft = true;

    /**
     * Recompute attempts per corrupted tile before the ABFT layer
     * escalates: the device is marked suspect in the health tracker
     * and the run falls back to the degrade-reschedule path (multi-GPU)
     * or fails with DataCorruption (last GPU).
     */
    unsigned abftMaxTileRetries = 2;
};

/**
 * Model constants used when pricing the optimization trade-offs. They
 * are deliberately explicit (not buried in code) so EXPERIMENTS.md can
 * reference them; see DESIGN.md "Hardware substitution".
 */
struct CostConstants
{
    /**
     * Fraction of twiddle-table loads that miss in L2 and reach DRAM
     * when onTheFlyTwiddles is off.
     */
    double twiddleTableDramFraction = 0.5;
    /**
     * Extra field multiplies per butterfly for incremental twiddle
     * generation when onTheFlyTwiddles is on.
     */
    double onTheFlyExtraMuls = 0.5;
    /**
     * Average extra shared-memory replays per access for the unpadded
     * layout (a 8-way conflict replays 7 times).
     */
    double unpaddedConflictReplays = 7.0;
};

} // namespace unintt

#endif // UNINTT_UNINTT_CONFIG_HH
