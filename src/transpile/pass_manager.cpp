#include "transpile/pass_manager.hpp"

#include "transpile/commutative_cancellation.hpp"
#include "transpile/cx_cancellation.hpp"
#include "transpile/hadamard_rewrite.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "transpile/single_qubit_fusion.hpp"

#include <cstddef>
#include <memory>
#include <utility>

namespace quclear {

void
PassManager::addPass(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

size_t
PassManager::run(QuantumCircuit &qc, size_t max_iterations) const
{
    // Passes are deterministic, so once the last passes_.size() runs
    // all left the circuit unchanged, every later run in this sweep
    // would see a circuit it already left unchanged: the fixpoint is
    // reached without finishing the confirming sweep.
    size_t effective_sweeps = 0;
    size_t unchanged_runs = 0;
    for (size_t sweep = 0; sweep < max_iterations; ++sweep) {
        bool changed = false;
        for (const auto &pass : passes_) {
            if (pass->run(qc)) {
                changed = true;
                unchanged_runs = 0;
            } else if (++unchanged_runs == passes_.size()) {
                return effective_sweeps;
            }
        }
        if (!changed)
            break; // an empty pipeline
        ++effective_sweeps;
    }
    return effective_sweeps;
}

PassManager
PassManager::level3()
{
    PassManager pm;
    pm.addPass(std::make_unique<SingleQubitFusion>());
    pm.addPass(std::make_unique<CxCancellation>());
    pm.addPass(std::make_unique<HadamardRewrite>());
    pm.addPass(std::make_unique<CommutativeCancellation>());
    pm.addPass(std::make_unique<PhaseRotationFolding>());
    return pm;
}

QuantumCircuit
optimizeLevel3(const QuantumCircuit &qc)
{
    QuantumCircuit out = qc;
    const PassManager pm = PassManager::level3();
    pm.run(out);
    return out;
}

} // namespace quclear
