/**
 * @file
 * Seeded workload inputs, regenerated on every run from the benchgen
 * family generators. The seed draws every number: UCC angles, molecule
 * coefficients, QAOA angles, noise seeds and observables, and the
 * service job order. The structure (MaxCut graphs, molecule supports)
 * comes from fixed seeds, so the gate counts of the outputs are the
 * same for every workload seed. The same seed gives the same inputs;
 * the compiler only ever sees the generated terms or QASM.
 */
#ifndef PERFBENCH_INSTANCES_HPP
#define PERFBENCH_INSTANCES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_term.hpp"

namespace perfbench {

/** One compile input. */
struct Instance
{
    std::string name;
    std::vector<quclear::PauliTerm> terms;
    uint32_t qubits = 0;
    bool qaoa = false; //!< probability-mode absorption
};

/**
 * compile-mid: Table II-family instances whose U' stays under the
 * 20,000-gate depth-scheduling cap.
 */
std::vector<Instance> compileMidInstances(uint64_t seed, bool smoke);

/** compile-large: instances above the depth-scheduling cap. */
std::vector<Instance> compileLargeInstances(uint64_t seed, bool smoke);

/** map-device: instances whose compiled U' is routed onto devices. */
std::vector<Instance> mapDeviceInstances(uint64_t seed, bool smoke);

/** One distinct service job: a seeded small program as inline QASM. */
struct Job
{
    std::string name;
    std::string line; //!< the JSONL job line (no newline)
    std::string qasm; //!< naive synthesis of the program
    bool portfolio = false;
    uint64_t shots = 0; //!< noise Monte-Carlo shots (0 = no noise group)
    uint64_t noiseSeed = 1;
    std::string observable;
};

/**
 * serve-mix: 36 jobs, twelve each of QAOA MaxCut (n 12-30), LABS
 * (n 10-20) and UCC / molecule programs of at most 8 qubits. Six jobs
 * set portfolio and nine request noise shots; those shapes are fixed,
 * the programs in them come from the seed.
 */
std::vector<Job> serveJobs(uint64_t seed, bool smoke);

/** Seeded observables for observable-mode absorption. */
std::vector<quclear::PauliString> observablesFor(const Instance &inst,
                                                 uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INSTANCES_HPP
