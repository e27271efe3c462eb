/**
 * @file
 * OpenQASM 2.0 import for the gate subset the IR supports. Together
 * with the gate-level front end (circuit_to_paulis) this lets QuCLEAR
 * optimize circuits produced by any external toolchain — the
 * platform-independence claim of Sec. IV.
 */
#ifndef QUCLEAR_CIRCUIT_QASM_IMPORT_HPP
#define QUCLEAR_CIRCUIT_QASM_IMPORT_HPP

#include <cstdint>
#include <string>

#include "circuit/quantum_circuit.hpp"

namespace quclear {

/**
 * Largest qreg size fromQasm accepts. Far above any circuit the
 * compiler can handle, and small enough that a typo or hostile size is
 * rejected before anything is allocated for it.
 */
constexpr uint32_t kMaxQasmQubits = 65536;

/**
 * Parse an OpenQASM 2.0 program.
 *
 * Supported: one qreg, the gates h/s/sdg/x/y/z/sx/sxdg/rz/rx/ry/cx/cz/
 * swap, `pi`-expressions in angles (e.g. "pi/2", "-3*pi/4", "0.25",
 * "-(pi/2)", "pi*(1+1)/4"; parentheses nest at most 64 deep), comments,
 * `include` and `creg`/`measure`/`barrier` statements (which are
 * ignored). Register sizes and qubit indices are plain decimal
 * integers; a qreg larger than kMaxQasmQubits is rejected.
 *
 * @throws std::invalid_argument on malformed input or unsupported gates;
 *         the message quotes at most 64 bytes of the offending input
 */
QuantumCircuit fromQasm(const std::string &source);

} // namespace quclear

#endif // QUCLEAR_CIRCUIT_QASM_IMPORT_HPP
