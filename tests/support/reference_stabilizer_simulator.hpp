/**
 * @file
 * Row-major Aaronson-Gottesman stabilizer simulator (quant-ph/0406196),
 * the tests' stabilizer-state simulator. The library needs a Clifford
 * tableau, never a state simulator, so this one lives with the test
 * support code and not in libquclear. Every generator is a
 * heap-allocated PauliString and every operation is the textbook row
 * walk, so the code stays an executable statement of the measurement
 * and phase rules; the tests use it as an independent check on the
 * bit-sliced CliffordTableau (stabilizer i of U|0...0> is
 * imageZ(i)) and on the noise sampler's ideal expectations.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_STABILIZER_SIMULATOR_HPP
#define QUCLEAR_TESTS_REFERENCE_STABILIZER_SIMULATOR_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "util/rng.hpp"

namespace quclear {

/**
 * Stabilizer state over n qubits, initialized to |0...0>, stored as 2n
 * row-major PauliString generators. Randomness is drawn only for a
 * random-outcome measurement (one draw each), so a seeded run is
 * reproducible.
 */
class ReferenceStabilizerSimulator
{
  public:
    /** |0...0> on n qubits. */
    explicit ReferenceStabilizerSimulator(uint32_t num_qubits);

    uint32_t numQubits() const { return numQubits_; }

    /** Apply one Clifford gate. */
    void applyGate(const Gate &g);

    /** Apply an entire Clifford circuit. */
    void applyCircuit(const QuantumCircuit &qc);

    /**
     * Measure qubit q in the Z basis, collapsing the state.
     * @param rng randomness source for non-deterministic outcomes
     * @return the outcome bit
     */
    bool measure(uint32_t q, Rng &rng);

    /** Measure all qubits (q0 = least significant bit of the result). */
    uint64_t measureAll(Rng &rng);

    /**
     * Sample the full-register measurement distribution of a Clifford
     * circuit: runs the circuit + measurement @p shots times.
     * @return map from bitstring (q0 = LSB) to observed count
     */
    static std::map<uint64_t, uint64_t> sample(const QuantumCircuit &qc,
                                               size_t shots, Rng &rng);

    /**
     * Expectation value of a Pauli observable in the current state:
     * +1, -1, or 0 (for stabilizer states it is always one of these).
     */
    int expectation(const PauliString &observable) const;

    /**
     * Projective measurement of an arbitrary Hermitian Pauli observable
     * (collapses the state; generalizes single-qubit Z measurement).
     * @return the measured eigenvalue sign: false -> +1, true -> -1
     */
    bool measurePauli(const PauliString &observable, Rng &rng);

    /** Reset qubit q to |0> (measure, then flip if needed). */
    void reset(uint32_t q, Rng &rng);

    /** @name Generator access for cross-check suites. @{ */
    const PauliString &destabilizer(uint32_t i) const { return destab_[i]; }
    const PauliString &stabilizer(uint32_t i) const { return stab_[i]; }
    /** @} */

  private:
    uint32_t numQubits_;
    std::vector<PauliString> destab_;
    std::vector<PauliString> stab_;
};

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_STABILIZER_SIMULATOR_HPP
