/**
 * @file
 * Weighted Pauli-sum Hamiltonians: the observable sets VQE measures and
 * the generators Trotterized simulation exponentiates. Includes a plain
 * text file format ("coefficient label" per line) so the CLI and
 * downstream tools can exchange problem definitions.
 */
#ifndef QUCLEAR_PAULI_HAMILTONIAN_HPP
#define QUCLEAR_PAULI_HAMILTONIAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_string.hpp"
#include "pauli/pauli_term.hpp"

namespace quclear {

/** One weighted term of a Hamiltonian. */
struct WeightedPauli
{
    PauliString pauli;
    double coefficient = 0.0;
};

/** H = sum_k c_k P_k over a fixed qubit count. */
class Hamiltonian
{
  public:
    Hamiltonian() = default;

    /** Empty Hamiltonian on n qubits. */
    explicit Hamiltonian(uint32_t num_qubits) : numQubits_(num_qubits) {}

    uint32_t numQubits() const { return numQubits_; }
    size_t size() const { return terms_.size(); }
    const std::vector<WeightedPauli> &terms() const { return terms_; }

    /** Append a term; the first term fixes the qubit count. */
    void addTerm(PauliString pauli, double coefficient);

    /** Convenience: addTerm from a label. */
    void addTerm(const std::string &label, double coefficient);

    /**
     * Parse the text format: one "coefficient label" pair per line,
     * '#' comments and blank lines ignored, e.g.
     *   # H2 sto-3g
     *   -1.0523  IIII
     *    0.3979  IIIZ
     * @throws std::invalid_argument on a malformed line, naming its
     *   line number: a coefficient that is not a finite number, a
     *   missing or invalid label, a label whose width differs from
     *   the earlier terms', or a trailing token. Only a line that is
     *   empty after its '#' comment is skipped.
     */
    static Hamiltonian fromText(const std::string &text);

    /** Serialize to the text format. */
    std::string toText() const;

    /** The Pauli strings alone (for absorption / measurement plans). */
    std::vector<PauliString> observables() const;

    /**
     * First-order Trotterization of e^{-iHt}: per step, one rotation
     * e^{i P_k (-c_k dt)} per term, in term order.
     */
    std::vector<PauliTerm> trotterTerms(double time,
                                        uint32_t steps = 1) const;

    /**
     * Second-order (symmetric/Strang) Trotterization: per step, half
     * rotations forward then half rotations in reverse order. Error
     * O(dt^2) per step instead of O(dt).
     */
    std::vector<PauliTerm> trotterTermsSecondOrder(double time,
                                                   uint32_t steps = 1) const;

    /**
     * Merge duplicate Pauli strings (coefficients summed, phases folded
     * into coefficients) and drop terms below @p cutoff in magnitude.
     * Term order: first occurrence.
     */
    Hamiltonian simplified(double cutoff = 1e-12) const;

    /** Sum of two Hamiltonians on the same qubit count. */
    Hamiltonian operator+(const Hamiltonian &other) const;

    /** Scalar multiple. */
    Hamiltonian operator*(double scalar) const;

    /**
     * Operator product H1.H2 expanded into Pauli terms (O(size^2)
     * output before simplification). Coefficients of non-Hermitian
     * cross terms may be complex in general; this implementation
     * asserts the result is Hermitian-real (true e.g. for H^2).
     */
    Hamiltonian product(const Hamiltonian &other) const;

  private:
    uint32_t numQubits_ = 0;
    std::vector<WeightedPauli> terms_;
};

class Statevector;

/** |psi> <- H |psi| as a dense matrix-free application. */
void applyHamiltonian(const Hamiltonian &h, const Statevector &in,
                      Statevector &out);

/** <psi| H |psi>. */
double hamiltonianExpectation(const Hamiltonian &h,
                              const Statevector &psi);

/**
 * Smallest eigenvalue of H by inverse-free power iteration on
 * (c.I - H), dense (n <= ~14). Reference value for VQE examples.
 */
double minimumEigenvalue(const Hamiltonian &h, uint32_t iterations = 500);

} // namespace quclear

#endif // QUCLEAR_PAULI_HAMILTONIAN_HPP
