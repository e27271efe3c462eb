/**
 * @file
 * Reference service front end — the seed fromQasm and
 * circuitToPauliProgram, kept verbatim.
 *
 * referenceFromQasm rebuilds the input with every comment removed
 * through an istringstream, copies each ';'-terminated statement into
 * its own std::string, collects each gate's operands into a vector and
 * looks gate names up in std::maps. referenceCircuitToPauliProgram
 * keeps the inverse of the Clifford prefix in the row-major
 * ReferenceTableau and prepends every inverted Clifford gate through
 * its full conjugation. The production importer
 * (circuit/qasm_import.hpp) parses in one pass over a string_view and
 * the production rewrite (core/circuit_to_paulis.hpp) multiplies only
 * the affected rows of a row-major inverse tableau; both must give the
 * same gates, terms and error messages bit for bit, and these
 * functions are the oracle for that differential test
 * (test_qasm_import, test_circuit_to_paulis) and the baseline
 * bench_micro measures against. Do not use them on hot paths.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_FRONTEND_HPP
#define QUCLEAR_TESTS_REFERENCE_FRONTEND_HPP

#include <string>

#include "circuit/quantum_circuit.hpp"
#include "core/circuit_to_paulis.hpp"

namespace quclear {

/** The seed fromQasm. @throws std::invalid_argument as fromQasm does */
QuantumCircuit referenceFromQasm(const std::string &source);

/** The seed circuitToPauliProgram. */
PauliProgram referenceCircuitToPauliProgram(const QuantumCircuit &qc);

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_FRONTEND_HPP
