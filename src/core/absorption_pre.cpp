#include "core/absorption_pre.hpp"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace quclear {

std::vector<AbsorbedObservable>
absorbObservables(const ExtractionResult &extraction,
                  const std::vector<PauliString> &observables)
{
    const uint32_t n = extraction.optimized.numQubits();

    // O' = U_CL~ O U_CL = E O E~, which is exactly the conjugator
    // tableau's map (U_CL = E~); one batch conjugation transposes the
    // tableau once for all k observables.
    std::vector<PauliString> transformed(observables);
    extraction.conjugator.conjugateBatch(transformed);

    std::vector<AbsorbedObservable> absorbed(observables.size());
    for (size_t i = 0; i < observables.size(); ++i) {
        AbsorbedObservable &a = absorbed[i];
        a.original = observables[i];
        a.transformed = std::move(transformed[i]);
        a.sign = a.transformed.sign();

        a.basisChange = QuantumCircuit(n);
        // Word-level support walk: identity columns are skipped 64 at a
        // time instead of probing every qubit.
        a.transformed.forEachSupport([&](uint32_t q, PauliOp op) {
            switch (op) {
              case PauliOp::X:
                a.basisChange.h(q);
                break;
              case PauliOp::Y:
                a.basisChange.sdg(q);
                a.basisChange.h(q);
                break;
              default:
                break;
            }
            a.measuredQubits.push_back(q);
        });
    }
    return absorbed;
}

QuantumCircuit
measurementCircuit(const ExtractionResult &extraction,
                   const AbsorbedObservable &obs)
{
    QuantumCircuit qc = extraction.optimized;
    qc.appendCircuit(obs.basisChange);
    return qc;
}

ProbabilityAbsorption
absorbProbabilities(const ExtractionResult &extraction)
{
    ProbabilityAbsorption pa;
    pa.reduction = reduceToHCnot(extraction.extractedClifford);
    assert(pa.reduction.valid &&
           "Clifford tail lacks the H + CNOT-network structure (Prop. 1)");

    pa.deviceCircuit = extraction.optimized;
    for (uint32_t q = 0; q < pa.deviceCircuit.numQubits(); ++q)
        if (pa.reduction.hLayer[q])
            pa.deviceCircuit.h(q);
    return pa;
}

} // namespace quclear
