#include "zkp/stark.hh"

#include "util/logging.hh"

namespace unintt {

using F = Goldilocks;

Air
squareAir(F t0)
{
    Air air;
    air.name = "stark";
    air.columns = 1;
    air.constraintDegree = 2;
    air.transitions = {
        [](const std::vector<F> &cur, const std::vector<F> &next) {
            return next[0] - cur[0] * cur[0] - F::one();
        },
    };
    air.boundaries = {{0, t0}};
    return air;
}

std::vector<std::vector<F>>
squareTrace(F t0, unsigned log_rows)
{
    return {SquareStark::runMachine(t0, (size_t{1} << log_rows) - 1)};
}

AirProof
toAirProof(const StarkProof &proof)
{
    AirProof out;
    out.logTrace = proof.logTrace;
    out.boundaries = {{0, proof.publicStart}};
    out.columnFris = {proof.traceFri};
    out.quotientFri = proof.quotientFri;
    out.boundaryFri = proof.boundaryFri;
    for (const auto &q : proof.queries)
        out.queries.push_back({{q.traceCur},
                               {q.traceNext},
                               q.quotient,
                               q.boundary,
                               {q.traceCurPath},
                               {q.traceNextPath},
                               q.quotientPath,
                               q.boundaryPath});
    return out;
}

StarkProof
toStarkProof(AirProof proof)
{
    UNINTT_ASSERT(proof.columnFris.size() == 1 &&
                      proof.boundaries.size() == 1,
                  "not a one-column, one-boundary proof");
    StarkProof out;
    out.logTrace = proof.logTrace;
    out.publicStart = proof.boundaries[0].value;
    out.traceFri = std::move(proof.columnFris[0]);
    out.quotientFri = std::move(proof.quotientFri);
    out.boundaryFri = std::move(proof.boundaryFri);
    for (auto &q : proof.queries)
        out.queries.push_back({q.cur.at(0), q.next.at(0), q.quotient,
                               q.boundary, std::move(q.curPaths.at(0)),
                               std::move(q.nextPaths.at(0)),
                               std::move(q.quotientPath),
                               std::move(q.boundaryPath)});
    return out;
}

SquareStark::SquareStark(StarkParams params) : params_(params) {}

std::vector<F>
SquareStark::runMachine(F t0, size_t steps)
{
    std::vector<F> trace(steps + 1);
    trace[0] = t0;
    for (size_t i = 1; i <= steps; ++i)
        trace[i] = trace[i - 1] * trace[i - 1] + F::one();
    return trace;
}

StarkProof
SquareStark::prove(F t0, unsigned log_trace) const
{
    return toStarkProof(
        AirStark(squareAir(t0), params_).prove(squareTrace(t0, log_trace)));
}

Result<StarkProof>
SquareStark::proveCheckpointed(F t0, unsigned log_trace,
                               CheckpointStore &store,
                               const StageGate &gate,
                               const FriRoundGate &round_gate) const
{
    Result<AirProof> r = AirStark(squareAir(t0), params_)
                             .proveCheckpointed(squareTrace(t0, log_trace),
                                                store, gate, round_gate);
    if (!r.ok())
        return r.status();
    return toStarkProof(std::move(r.value()));
}

bool
SquareStark::verify(const StarkProof &proof) const
{
    return AirStark(squareAir(proof.publicStart), params_)
        .verify(toAirProof(proof));
}

} // namespace unintt
