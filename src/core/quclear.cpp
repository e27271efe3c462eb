#include "core/quclear.hpp"

#include "core/circuit_to_paulis.hpp"
#include "tableau/clifford_tableau.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/pass_manager.hpp"
#include "util/timer.hpp"

#include <utility>
#include <vector>

namespace quclear {

namespace {

/**
 * The alternate-synthesis portfolio (see
 * QuClearOptions::synthesisPortfolio). Each candidate derives from the
 * configured extraction options with only the tree-synthesis knobs
 * changed, so threads / block parallelism / commuting-block settings
 * the caller chose stay in force unless the candidate names them.
 */
struct PortfolioCandidate
{
    const char *name;
    uint32_t exhaustiveThreshold;
    uint32_t beamWidth;
    bool useCommutingBlocks;
};

constexpr PortfolioCandidate kPortfolio[] = {
    { "alg1", 0, 0, true },
    { "beam8", 0, 8, true },
    { "beam8-noblocks", 0, 8, false },
};

} // namespace

QuClear::QuClear(QuClearOptions options) : options_(std::move(options)) {}

CompiledProgram
QuClear::compile(const std::vector<PauliTerm> &terms) const
{
    const CliffordExtractor extractor(options_.extraction);
    ExtractionResult result = extractor.run(terms);
    LocalOptStats stats;
    stats.cxBefore = result.optimized.twoQubitCount(true);
    stats.gatesBefore = result.optimized.size();

    if (options_.applyLocalOptimization) {
        const Timer timer;

        if (options_.synthesisPortfolio) {
            // Re-synthesize with the alternate configurations and keep
            // the extraction with the fewest executed two-qubit gates.
            // Every candidate is a complete, self-consistent
            // ExtractionResult (own tail + conjugator), so adopting one
            // wholesale preserves U = U_CL . U'.
            size_t best = stats.cxBefore;
            for (const PortfolioCandidate &cand : kPortfolio) {
                ExtractionConfig cfg = options_.extraction;
                cfg.tree.exhaustiveThreshold = cand.exhaustiveThreshold;
                cfg.tree.beamWidth = cand.beamWidth;
                cfg.useCommutingBlocks = cand.useCommutingBlocks;
                ++stats.portfolioCandidates;
                ExtractionResult alt = CliffordExtractor(cfg).run(terms);
                const size_t cx = alt.optimized.twoQubitCount(true);
                if (cx < best) {
                    best = cx;
                    result = std::move(alt);
                    stats.portfolioWinner = cand.name;
                }
            }
        }

        const PassManager pm = PassManager::level3();
        stats.passSweeps = pm.run(result.optimized);

        if (!result.extractedClifford.empty()) {
            // Run the same (Clifford-safe) pipeline over the absorbed
            // tail. It is never executed, so this only speeds up
            // absorption — and the tableau replay check makes any
            // unsound rewrite fall back to the original tail.
            stats.tailGatesBefore = result.extractedClifford.size();
            QuantumCircuit tail = result.extractedClifford;
            pm.run(tail);
            if (tail.size() < result.extractedClifford.size() &&
                CliffordTableau::fromCircuit(tail) ==
                    CliffordTableau::fromCircuit(result.extractedClifford))
                result.extractedClifford = std::move(tail);
            stats.tailGatesAfter = result.extractedClifford.size();
        }

        stats.passSeconds = timer.seconds();
    }
    stats.cxAfter = result.optimized.twoQubitCount(true);
    stats.gatesAfter = result.optimized.size();

    if (options_.optimizeDepth &&
        result.optimized.size() <= options_.depthSchedulingGateLimit) {
        const DepthScheduling scheduler;
        scheduler.run(result.optimized);
    }
    return CompiledProgram{ std::move(result), std::move(stats) };
}

CompiledProgram
QuClear::compileCircuit(const QuantumCircuit &qc) const
{
    PauliProgram pauli_program = circuitToPauliProgram(qc);
    if (pauli_program.terms.empty()) {
        // Entirely Clifford: everything is absorbed.
        ExtractionResult result{
            QuantumCircuit(qc.numQubits()), pauli_program.clifford,
            CliffordTableau::fromCircuit(pauli_program.clifford.inverse()),
            {}
        };
        return CompiledProgram{ std::move(result), {} };
    }
    CompiledProgram program = compile(pauli_program.terms);
    if (!pauli_program.clifford.empty()) {
        // U = C_suffix . U_CL . U': fold the circuit's own Clifford
        // suffix into the tail and refresh the conjugator (= tail~).
        program.extraction.extractedClifford.appendCircuit(
            pauli_program.clifford);
        program.extraction.conjugator = CliffordTableau::fromCircuit(
            program.extraction.extractedClifford.inverse());
    }
    return program;
}

std::vector<AbsorbedObservable>
QuClear::absorbObservables(const CompiledProgram &program,
                           const std::vector<PauliString> &observables) const
{
    return quclear::absorbObservables(program.extraction, observables);
}

ProbabilityAbsorption
QuClear::absorbProbabilities(const CompiledProgram &program) const
{
    return quclear::absorbProbabilities(program.extraction);
}

} // namespace quclear
