#include "reference_depth_scheduling.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit_stats.hpp"

namespace quclear {

bool
ReferenceDepthScheduling::run(QuantumCircuit &qc) const
{
    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();
    if (n_gates < 2)
        return false;

    // Dependency DAG: gate i precedes gate j (i < j) iff they share a
    // qubit and do not provably commute. Built per qubit; every earlier
    // gate on the qubit is examined because commuting gates in between
    // do not imply transitive ordering.
    std::vector<std::vector<size_t>> succs(n_gates);
    std::vector<uint32_t> indeg(n_gates, 0);
    {
        std::vector<std::vector<size_t>> per_qubit(qc.numQubits());
        for (size_t j = 0; j < n_gates; ++j) {
            const Gate &gj = gates[j];
            uint32_t qubits[2] = { gj.q0, gj.q1 };
            const int nq = isTwoQubit(gj.type) ? 2 : 1;
            for (int k = 0; k < nq; ++k) {
                if (k == 1 && qubits[1] == qubits[0])
                    continue;
                for (size_t i : per_qubit[qubits[k]]) {
                    if (gatesCommute(gates[i], gates[j]))
                        continue;
                    // Deduplicate i -> j (successor lists stay short).
                    bool seen = false;
                    for (size_t existing : succs[i]) {
                        if (existing == j) {
                            seen = true;
                            break;
                        }
                    }
                    if (!seen) {
                        succs[i].push_back(j);
                        ++indeg[j];
                    }
                }
            }
            for (int k = 0; k < nq; ++k) {
                if (k == 1 && qubits[1] == qubits[0])
                    continue;
                per_qubit[qubits[k]].push_back(j);
            }
        }
    }

    // Critical-path priority: longest chain of two-qubit gates from
    // each node to a sink (reverse topological DP over gate index,
    // valid since all edges go forward).
    std::vector<uint32_t> priority(n_gates, 0);
    for (size_t i = n_gates; i-- > 0;) {
        uint32_t best = 0;
        for (size_t j : succs[i])
            best = std::max(best, priority[j]);
        priority[i] = best + (isTwoQubit(gates[i].type) ? 1 : 0);
    }

    // List scheduling: emit ready gates longest-path-first; per level,
    // each qubit hosts at most one two-qubit gate (single-qubit gates
    // ride along for free, matching the entangling-depth metric).
    std::vector<Gate> scheduled;
    scheduled.reserve(n_gates);
    std::vector<size_t> ready;
    for (size_t i = 0; i < n_gates; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);

    auto emit = [&](size_t i) {
        scheduled.push_back(gates[i]);
        for (size_t j : succs[i]) {
            if (--indeg[j] == 0)
                ready.push_back(j);
        }
    };

    size_t emitted = 0;
    while (emitted < n_gates) {
        // One "level": greedily take ready gates on free qubits.
        std::sort(ready.begin(), ready.end(),
                  [&](size_t a, size_t b) {
                      if (priority[a] != priority[b])
                          return priority[a] > priority[b];
                      return a < b;
                  });
        std::vector<bool> busy(qc.numQubits(), false);
        std::vector<size_t> next_ready;
        std::vector<size_t> this_level;
        for (size_t i : ready) {
            const Gate &g = gates[i];
            const bool two = isTwoQubit(g.type);
            if (busy[g.q0] || (two && busy[g.q1])) {
                next_ready.push_back(i);
                continue;
            }
            if (two) {
                busy[g.q0] = true;
                busy[g.q1] = true;
            }
            this_level.push_back(i);
        }
        for (size_t i : this_level) {
            emit(i);
            ++emitted;
        }
        // Newly readied gates were appended to `ready` by emit(); merge.
        for (size_t i = 0; i < ready.size(); ++i) {
            const size_t idx = ready[i];
            bool in_level = false;
            for (size_t l : this_level) {
                if (l == idx) {
                    in_level = true;
                    break;
                }
            }
            bool in_next = false;
            for (size_t nr : next_ready) {
                if (nr == idx) {
                    in_next = true;
                    break;
                }
            }
            if (!in_level && !in_next)
                next_ready.push_back(idx);
        }
        ready = std::move(next_ready);
    }

    QuantumCircuit rebuilt(qc.numQubits());
    for (const Gate &g : scheduled)
        rebuilt.append(g);

    // Accept only improvements (the scheduler can tie; never regress).
    if (entanglingDepth(rebuilt) < entanglingDepth(qc)) {
        qc = std::move(rebuilt);
        return true;
    }
    return false;
}

} // namespace quclear
