/**
 * @file
 * Figure 16 (extension): block-tile-size sensitivity. The planner
 * derives the shared-memory tile from the abstract hardware model
 * (threads-per-block and smem capacity); this bench pins the tile to
 * every power of two from 2^6 to 2^11 and shows the derived choice
 * sits at (or next to) the minimum — fewer bits per pass means more
 * full-array memory round trips, larger tiles stop fitting.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "field/goldilocks.hh"
#include "util/stats.hh"
#include "util/table.hh"

int
main()
{
    using namespace unintt;
    using F = Goldilocks;
    benchHeader("Figure 16",
                "block-tile-size sensitivity (2^26, 4 GPUs, A100)");
    verifyOrDie<F>(makeDgxA100(4));

    auto sys = makeDgxA100(4);
    unsigned auto_tile = planNtt(26, sys, sizeof(F)).logBlockTile;

    Table t({"log2(tile)", "grid passes", "time", "vs auto"});
    double auto_time = 0;
    {
        UniNttEngine<F> engine(sys);
        auto_time = engine.analyticRun(26, NttDirection::Forward)
                        .totalSeconds();
    }
    for (unsigned tile = 6; tile <= 11; ++tile) {
        UniNttConfig cfg;
        cfg.forceLogBlockTile = tile;
        UniNttEngine<F> engine(sys, cfg);
        auto pl = engine.plan(26);
        double s = engine.analyticRun(26, NttDirection::Forward)
                       .totalSeconds();
        std::string label = std::to_string(tile);
        if (tile == auto_tile)
            label += " (auto)";
        t.addRow({label, std::to_string(pl.passes.size()),
                  formatSeconds(s), fmtX(s / auto_time)});
    }
    t.print();
    std::printf("planner's automatic choice: 2^%u\n", auto_tile);
    return 0;
}
