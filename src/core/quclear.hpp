/**
 * @file
 * QuCLEAR framework facade (Sec. IV).
 *
 * Wires the three modules together: Clifford Extraction (CE) compiles a
 * Pauli-term program into an optimized circuit plus a Clifford tail;
 * Clifford Absorption pre-processing (CA-Pre) folds the tail into
 * observables or reduces it for probability measurements; Clifford
 * Absorption post-processing (CA-Post) maps device results back to the
 * original program's semantics.
 *
 * Typical use:
 * @code
 *   QuClear compiler;
 *   auto program = compiler.compile(terms);
 *   auto absorbed = compiler.absorbObservables(program, observables);
 *   // run measurementCircuit(program.extraction, absorbed[i]) on any
 *   // backend, then expectationFromCounts(absorbed[i], counts).
 * @endcode
 */
#ifndef QUCLEAR_CORE_QUCLEAR_HPP
#define QUCLEAR_CORE_QUCLEAR_HPP

#include <string>
#include <vector>

#include "core/absorption_post.hpp"
#include "core/absorption_pre.hpp"
#include "core/clifford_extractor.hpp"
#include "pauli/pauli_term.hpp"

namespace quclear {

/**
 * Framework-wide options. All knobs are deterministic: a fixed
 * configuration always produces the same compiled program, and
 * `extraction.threads` never changes the output (see
 * ExtractionConfig).
 */
struct QuClearOptions
{
    /** Clifford Extraction options (tree synthesis, blocks, threads). */
    ExtractionConfig extraction;

    /**
     * Run the local-optimization layer on the extraction output: the
     * local-rewrite pipeline (the "Qiskit O3" proxy) on U', the same
     * Clifford-safe pipeline on the absorbed Clifford tail, and — when
     * synthesisPortfolio is also set — the alternate-synthesis
     * portfolio. Default: true (the paper's configuration; Fig. 9
     * measures the effect of turning it off). Everything in the layer
     * is a fixed, deterministic sequence with no randomness.
     */
    bool applyLocalOptimization = true;

    /**
     * Alternate-synthesis portfolio: additionally compile with a small
     * fixed set of alternate tree-synthesis configurations (plain
     * Algorithm 1, beam search, beam without commuting-block reorder)
     * and keep the extraction with the fewest executed two-qubit gates
     * (ties keep the earlier candidate, the configured default first).
     * The extractor's lookahead heuristics are near-optimal but not
     * uniformly so across instances — the portfolio recovers the
     * instances where an alternate schedule wins (e.g. ~4% CNOTs on
     * LABS-(n15)). Costs one extra extraction per candidate, so it is
     * off by default and enabled where the compile-time trade is wanted
     * (bench_fig9's with-optimization arm, the service "portfolio"
     * knob). Only consulted when applyLocalOptimization is true.
     */
    bool synthesisPortfolio = false;

    /**
     * Re-schedule the optimized circuit for entangling depth
     * (commutation-aware list scheduling; never increases depth).
     * Default: true. Skipped automatically above
     * depthSchedulingGateLimit gates.
     */
    bool optimizeDepth = true;

    /**
     * Gate-count cutoff for the depth scheduler. Default: 20000 gates,
     * so paper-scale circuits skip straight to emission. The scheduler
     * itself runs in near-linear time; the cap stays because lifting it
     * changes the compiled output of every instance above it, which
     * needs its own measured change.
     */
    size_t depthSchedulingGateLimit = 20000;
};

/**
 * What the local-optimization layer did during one compile, so callers
 * (bench_fig9, the service result schema) can report whether the passes
 * ran and did work, not just the final gate counts. All zeros /
 * "default" when applyLocalOptimization was off.
 */
struct LocalOptStats
{
    /** Effective sweep count from PassManager::run on U'. */
    size_t passSweeps = 0;

    /** Wall-clock seconds spent in the whole layer (portfolio included). */
    double passSeconds = 0.0;

    /** Executed 2q count before/after the layer (Swap counted as 3). */
    size_t cxBefore = 0;
    size_t cxAfter = 0;

    /** Total gate count of U' before/after the layer. */
    size_t gatesBefore = 0;
    size_t gatesAfter = 0;

    /** Synthesis candidates compiled (1 = no portfolio). */
    size_t portfolioCandidates = 1;

    /** Name of the winning synthesis candidate ("default" = configured). */
    std::string portfolioWinner = "default";

    /** Absorbed Clifford-tail gate count before/after its pipeline run. */
    size_t tailGatesBefore = 0;
    size_t tailGatesAfter = 0;
};

/** A compiled quantum-simulation program. */
struct CompiledProgram
{
    /** Extraction output: optimized circuit, Clifford tail, conjugator. */
    ExtractionResult extraction;

    /** What the local-optimization layer did (see LocalOptStats). */
    LocalOptStats localOpt;

    /** The circuit to execute on the device (optimized U'). */
    const QuantumCircuit &circuit() const { return extraction.optimized; }
};

/** The QuCLEAR compiler. */
class QuClear
{
  public:
    explicit QuClear(QuClearOptions options = {});

    /** Clifford Extraction (+ optional local optimization) on a program. */
    CompiledProgram compile(const std::vector<PauliTerm> &terms) const;

    /**
     * Compile an arbitrary Clifford+rotation circuit: the circuit is
     * first rewritten as a Pauli program (Sec. I: any circuit is a
     * quantum simulation), the rotations are extracted as usual, and the
     * circuit's own Clifford suffix merges into the absorbed tail.
     */
    CompiledProgram compileCircuit(const QuantumCircuit &qc) const;

    /** CA-Pre, observable mode. */
    std::vector<AbsorbedObservable>
    absorbObservables(const CompiledProgram &program,
                      const std::vector<PauliString> &observables) const;

    /** CA-Pre, probability mode (QAOA). */
    ProbabilityAbsorption
    absorbProbabilities(const CompiledProgram &program) const;

    const QuClearOptions &options() const { return options_; }

  private:
    QuClearOptions options_;
};

} // namespace quclear

#endif // QUCLEAR_CORE_QUCLEAR_HPP
