/**
 * @file
 * Fixpoint pass pipeline standing in for "Qiskit optimization level 3"
 * in the paper's methodology (applied after QuCLEAR and Paulihedral).
 */
#ifndef QUCLEAR_TRANSPILE_PASS_MANAGER_HPP
#define QUCLEAR_TRANSPILE_PASS_MANAGER_HPP

#include <memory>
#include <vector>

#include "transpile/pass.hpp"

namespace quclear {

/** Runs a pass list repeatedly until no pass changes the circuit. */
class PassManager
{
  public:
    PassManager() = default;

    /** Append a pass to the pipeline. */
    void addPass(std::unique_ptr<Pass> pass);

    /**
     * Run all passes in order, repeating the whole pipeline until a full
     * sweep's worth of consecutive pass runs makes no change (bounded by
     * @p max_iterations sweeps). The result is the same as running
     * until a whole sweep makes no change, since a pass that left a
     * circuit unchanged leaves it unchanged again.
     * @return number of sweeps that changed something
     */
    size_t run(QuantumCircuit &qc, size_t max_iterations = 32) const;

    /**
     * The default "level 3" pipeline: 1q fusion, adjacent CX
     * cancellation, Hadamard rewrites, commutative cancellation, and
     * parity-keyed phase-rotation folding. Every pass is Clifford-safe:
     * a circuit of Clifford gates stays Clifford, so the same pipeline
     * runs over the extracted (absorbed) Clifford tail.
     */
    static PassManager level3();

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Convenience: run the default pipeline on a copy and return it. */
QuantumCircuit optimizeLevel3(const QuantumCircuit &qc);

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_PASS_MANAGER_HPP
