#include "transpile/depth_scheduling.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "transpile/gate_algebra.hpp"

namespace quclear {

namespace {

constexpr uint32_t kNoRun = UINT32_MAX;

/**
 * A maximal stretch of same-class gates on one qubit. Its members are
 * members[begin, end): runs on a qubit are consecutive ranges of that
 * qubit's slice of the by-qubit member list.
 */
struct Run
{
    uint32_t begin;
    uint32_t end;
    uint32_t next = kNoRun;    //!< following run on the same qubit
    uint32_t unemitted = 0;    //!< members not yet scheduled
    uint32_t maxPriority = 0;  //!< largest member priority
};

} // namespace

bool
DepthScheduling::run(QuantumCircuit &qc) const
{
    const auto &gates = qc.gates();
    const uint32_t n_gates = static_cast<uint32_t>(gates.size());
    const uint32_t n_qubits = qc.numQubits();
    if (n_gates < 2)
        return false;

    auto operands = [](const Gate &g) -> size_t {
        return isTwoQubit(g.type) && g.q1 != g.q0 ? 2 : 1;
    };
    auto operand = [](const Gate &g, size_t k) { return k == 0 ? g.q0 : g.q1; };

    // By-qubit member list (CSR): qubit q's gates, in circuit order, are
    // members[qubit_begin[q], qubit_begin[q + 1]).
    std::vector<uint32_t> qubit_begin(n_qubits + 1, 0);
    for (const Gate &g : gates)
        for (size_t k = 0; k < operands(g); ++k)
            ++qubit_begin[operand(g, k) + 1];
    for (uint32_t q = 0; q < n_qubits; ++q)
        qubit_begin[q + 1] += qubit_begin[q];
    std::vector<uint32_t> members(qubit_begin[n_qubits]);
    std::vector<uint32_t> fill(qubit_begin.begin(), qubit_begin.end() - 1);

    // Run DAG: every member of a run depends on every member of the
    // run before it on the same qubit, so a gate waits for at most one
    // run per operand. A gate whose class matches the qubit's last run
    // joins it; any other gate opens a new run. A Swap run is closed on
    // creation, so nothing joins it.
    std::vector<Run> runs;
    runs.reserve(members.size());
    std::vector<std::array<uint32_t, 2>> gate_runs(n_gates);
    std::vector<uint32_t> indeg(n_gates, 0);
    std::vector<uint32_t> tail(n_qubits, kNoRun);
    std::vector<GateAxis> tail_axis(n_qubits, GateAxis::Other);
    std::vector<char> tail_open(n_qubits, 0);
    for (uint32_t i = 0; i < n_gates; ++i) {
        const Gate &g = gates[i];
        const bool swap = g.type == GateType::Swap;
        for (size_t k = 0; k < operands(g); ++k) {
            const uint32_t q = operand(g, k);
            const GateAxis axis = operandAxis(g.type, k == 1);
            uint32_t &r = gate_runs[i][k];
            if (!swap && tail_open[q] && tail_axis[q] == axis) {
                r = tail[q];
            } else {
                r = static_cast<uint32_t>(runs.size());
                runs.push_back(Run{ fill[q], fill[q] });
                if (tail[q] != kNoRun)
                    runs[tail[q]].next = r;
                tail[q] = r;
                tail_axis[q] = axis;
                tail_open[q] = !swap;
            }
            if (runs[r].begin != qubit_begin[q])
                ++indeg[i]; // not the qubit's first run
            members[fill[q]++] = i;
            runs[r].end = fill[q];
            ++runs[r].unemitted;
        }
    }

    // Critical-path priority: longest chain of two-qubit gates from
    // each node to a sink. A gate's successors are the runs after its
    // own, whose members all come later, so one reverse sweep suffices.
    std::vector<uint32_t> priority(n_gates, 0);
    for (uint32_t i = n_gates; i-- > 0;) {
        const Gate &g = gates[i];
        uint32_t best = 0;
        for (size_t k = 0; k < operands(g); ++k) {
            const uint32_t next = runs[gate_runs[i][k]].next;
            if (next != kNoRun)
                best = std::max(best, runs[next].maxPriority);
        }
        priority[i] = best + (isTwoQubit(g.type) ? 1 : 0);
        for (size_t k = 0; k < operands(g); ++k) {
            Run &run = runs[gate_runs[i][k]];
            run.maxPriority = std::max(run.maxPriority, priority[i]);
        }
    }

    // List scheduling: emit ready gates longest-path-first; per level,
    // each qubit hosts at most one two-qubit gate (single-qubit gates
    // ride along for free, matching the entangling-depth metric).
    // `ready` stays sorted: each level splits it into taken and
    // deferred gates in order, and only the newly readied gates are
    // sorted before being merged back in.
    auto before = [&](uint32_t a, uint32_t b) {
        if (priority[a] != priority[b])
            return priority[a] > priority[b];
        return a < b;
    };
    std::vector<uint32_t> ready;
    for (uint32_t i = 0; i < n_gates; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    std::sort(ready.begin(), ready.end(), before);

    QuantumCircuit rebuilt(n_qubits);
    std::vector<char> busy(n_qubits, 0);
    std::vector<uint32_t> taken, deferred, fresh;
    while (!ready.empty()) {
        taken.clear();
        deferred.clear();
        for (uint32_t i : ready) {
            const Gate &g = gates[i];
            const bool two = isTwoQubit(g.type);
            if (busy[g.q0] || (two && busy[g.q1])) {
                deferred.push_back(i);
                continue;
            }
            if (two) {
                busy[g.q0] = 1;
                busy[g.q1] = 1;
            }
            taken.push_back(i);
        }

        fresh.clear();
        for (uint32_t i : taken) {
            const Gate &g = gates[i];
            rebuilt.append(g);
            busy[g.q0] = 0;
            busy[g.q1] = 0;
            for (size_t k = 0; k < operands(g); ++k) {
                Run &run = runs[gate_runs[i][k]];
                if (--run.unemitted != 0 || run.next == kNoRun)
                    continue;
                const Run &next = runs[run.next];
                for (uint32_t m = next.begin; m < next.end; ++m)
                    if (--indeg[members[m]] == 0)
                        fresh.push_back(members[m]);
            }
        }
        std::sort(fresh.begin(), fresh.end(), before);
        ready.clear();
        std::merge(deferred.begin(), deferred.end(), fresh.begin(),
                   fresh.end(), std::back_inserter(ready), before);
    }

    // Accept only improvements (the scheduler can tie; never regress).
    if (entanglingDepth(rebuilt) < entanglingDepth(qc)) {
        qc = std::move(rebuilt);
        return true;
    }
    return false;
}

} // namespace quclear
