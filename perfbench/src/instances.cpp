#include "instances.hpp"

#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "baselines/naive_synthesis.hpp"
#include "benchgen/graphs.hpp"
#include "benchgen/labs.hpp"
#include "benchgen/maxcut.hpp"
#include "benchgen/molecules.hpp"
#include "benchgen/uccsd.hpp"
#include "circuit/qasm.hpp"
#include "pauli/pauli_list.hpp"
#include "service/protocol.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace quclear;

namespace {

Instance
make(std::string name, std::vector<PauliTerm> terms, bool qaoa)
{
    Instance inst;
    inst.name = std::move(name);
    inst.terms = std::move(terms);
    inst.qubits = numQubitsOf(inst.terms);
    inst.qaoa = qaoa;
    return inst;
}

/**
 * Seed of the structure (graph edges, molecule supports) of one
 * instance shape. It does not depend on the workload seed: the gate
 * counts of the outputs then stay the same across seeds, so a change
 * of a single gate in a thousand shows against them.
 */
uint64_t
structureSeed(uint32_t a, uint64_t b)
{
    return 0x51C0FFEEULL ^ (static_cast<uint64_t>(a) << 32) ^ b;
}

/**
 * Draws every seeded number of one workload from a single stream, so
 * the instance list is a pure function of the workload seed.
 */
class Gen
{
  public:
    Gen(uint64_t workload_seed, uint64_t salt)
        : rng_(workload_seed * 0x9E3779B97F4A7C15ULL ^ salt)
    {
    }

    uint64_t seed() { return rng_(); }
    double angle() { return rng_.uniformReal(0.15, 1.35); }
    uint32_t pick(uint32_t lo, uint32_t hi)
    {
        return static_cast<uint32_t>(rng_.uniformRange(lo, hi));
    }
    bool chance(double p) { return rng_.bernoulli(p); }

    Instance ucc(uint32_t e, uint32_t o)
    {
        // uccsdAnsatz's seed draws the angles only.
        return make("UCC-(" + std::to_string(e) + "," + std::to_string(o) +
                        ")",
                    uccsdAnsatz(e, o, seed()), false);
    }

    /** Fixed supports; the seed scales each coefficient by 0.5–1.5. */
    Instance molecule(const std::string &name, uint32_t n, size_t terms)
    {
        std::vector<PauliTerm> out =
            syntheticMolecule(n, terms, structureSeed(n, terms));
        for (PauliTerm &t : out)
            t.angle *= rng_.uniformReal(0.5, 1.5);
        return make(name, std::move(out), false);
    }

    Instance labs(uint32_t n)
    {
        const double gamma = angle(), beta = angle();
        return make("LABS-(n" + std::to_string(n) + ")",
                    labsQaoa(n, gamma, beta), true);
    }

    Instance regularMaxcut(uint32_t n, uint32_t d)
    {
        const Graph g = randomRegularGraph(n, d, structureSeed(n, d));
        const double gamma = angle(), beta = angle();
        return make("MaxCut-(n" + std::to_string(n) + ",r" +
                        std::to_string(d) + ")",
                    maxcutQaoa(g, 1, gamma, beta), true);
    }

    Instance randomMaxcut(uint32_t n, uint32_t edges)
    {
        const Graph g = randomGraph(n, edges, structureSeed(n, edges << 8));
        const double gamma = angle(), beta = angle();
        return make("MaxCut-(n" + std::to_string(n) + ",e" +
                        std::to_string(edges) + ")",
                    maxcutQaoa(g, 1, gamma, beta), true);
    }

  private:
    Rng rng_;
};

/** k copies of @p base on disjoint qubit registers, fragment-major. */
Instance
tile(const Instance &base, uint32_t k)
{
    std::vector<PauliTerm> out;
    const uint32_t total = base.qubits * k;
    for (uint32_t f = 0; f < k; ++f) {
        for (const PauliTerm &t : base.terms) {
            PauliString shifted(total);
            t.pauli.forEachSupport([&](uint32_t q, PauliOp op) {
                shifted.setOp(q + f * base.qubits, op);
            });
            shifted.setPhase(t.pauli.phase());
            out.emplace_back(std::move(shifted), t.angle);
        }
    }
    return make(base.name + "x" + std::to_string(k), std::move(out), false);
}

} // namespace

std::vector<Instance>
compileMidInstances(uint64_t seed, bool smoke)
{
    Gen g(seed, 0xC0);
    if (smoke)
        return { g.ucc(2, 4), g.molecule("LiH", 6, 61), g.labs(10),
                 g.randomMaxcut(10, 12) };
    std::vector<Instance> out;
    out.push_back(g.ucc(4, 8));
    out.push_back(g.ucc(6, 12));
    out.push_back(g.molecule("LiH", 6, 61));
    out.push_back(g.molecule("H2O", 8, 184));
    out.push_back(g.molecule("benzene", 12, 1254));
    for (uint32_t n : { 15u, 20u, 25u, 30u })
        out.push_back(g.labs(n));
    out.push_back(g.regularMaxcut(20, 8));
    out.push_back(g.randomMaxcut(20, 117));
    return out;
}

std::vector<Instance>
compileLargeInstances(uint64_t seed, bool smoke)
{
    Gen g(seed, 0xC1);
    if (smoke)
        return { g.ucc(4, 8), tile(g.ucc(2, 4), 4) };
    std::vector<Instance> out;
    out.push_back(g.ucc(8, 16));
    out.push_back(g.ucc(10, 20));
    out.push_back(g.molecule("naphthalene", 18, 3066));
    out.push_back(tile(g.ucc(6, 12), 8));
    return out;
}

std::vector<Instance>
mapDeviceInstances(uint64_t seed, bool smoke)
{
    Gen g(seed, 0xD0);
    if (smoke)
        return { g.molecule("LiH", 6, 61), g.labs(10) };
    std::vector<Instance> out;
    out.push_back(g.molecule("benzene", 12, 1254));
    out.push_back(g.ucc(8, 16));
    out.push_back(g.molecule("naphthalene", 18, 3066));
    for (uint32_t n : { 20u, 25u, 30u })
        out.push_back(g.labs(n));
    out.push_back(g.regularMaxcut(20, 4));
    out.push_back(g.regularMaxcut(30, 4));
    return out;
}

std::vector<Job>
serveJobs(uint64_t seed, bool smoke)
{
    // The job shapes (family, size, portfolio, noise) are fixed so that
    // every seed offers the same amount of work; the seed draws the
    // angles and coefficients, the noise seeds and observables, and the
    // job order. The shares are chosen, not measured (there is no job
    // traffic to measure): a third per family, one job in six with the
    // synthesis portfolio, one in four with noise shots. UCC and
    // molecule jobs span 4-12 qubits but stay at or under 400 terms
    // (about 0.4-30 ms per compile on one thread); the Table II 12-qubit
    // programs (benzene, UCC-(6,12)) take 0.7-1.3 s and are compile-mid
    // rows instead.
    struct Shape
    {
        char family; // 'm' MaxCut, 'l' LABS, 'u' UCC, 'h' molecule
        // MaxCut: n and graph kind (0 = 3-regular, 1 = 2n random
        // edges); LABS: n; UCC: (e, o); molecule: (qubits, terms).
        uint32_t a, b;
        bool portfolio;
        bool noise;
    };
    static const Shape kShapes[] = {
        { 'm', 12, 0, false, false }, { 'm', 14, 0, false, true },
        { 'm', 16, 0, false, false }, { 'm', 18, 0, false, false },
        { 'm', 20, 0, true, false },  { 'm', 22, 0, false, true },
        { 'm', 24, 0, false, false }, { 'm', 26, 0, true, false },
        { 'm', 28, 0, false, true },  { 'm', 30, 0, false, false },
        { 'm', 16, 1, false, false }, { 'm', 24, 1, false, false },
        { 'l', 10, 0, false, false }, { 'l', 11, 0, false, true },
        { 'l', 12, 0, true, false },  { 'l', 13, 0, false, false },
        { 'l', 14, 0, false, false }, { 'l', 15, 0, false, false },
        { 'l', 16, 0, true, false },  { 'l', 17, 0, false, true },
        { 'l', 18, 0, false, false }, { 'l', 19, 0, false, true },
        { 'l', 20, 0, false, false }, { 'l', 15, 0, false, false },
        { 'u', 2, 4, false, true },    { 'u', 2, 6, true, false },
        { 'u', 4, 8, false, false },   { 'h', 6, 61, false, false },
        { 'h', 8, 184, false, true },  { 'u', 2, 10, false, false },
        { 'h', 10, 250, false, false }, { 'h', 6, 61, true, false },
        { 'u', 2, 12, false, false },  { 'h', 12, 250, false, true },
        { 'u', 2, 6, false, false },   { 'h', 8, 184, false, false },
    };
    static const Shape kSmokeShapes[] = {
        { 'm', 12, 0, true, false }, { 'l', 10, 0, false, true },
        { 'u', 2, 4, false, false }, { 'h', 6, 61, false, true },
    };

    Gen g(seed, 0x5E);
    std::vector<Job> jobs;
    const Shape *begin = smoke ? std::begin(kSmokeShapes) : std::begin(kShapes);
    const Shape *end = smoke ? std::end(kSmokeShapes) : std::end(kShapes);
    for (const Shape *shape = begin; shape != end; ++shape) {
        Instance inst;
        switch (shape->family) {
          case 'm':
            inst = shape->b == 0 ? g.regularMaxcut(shape->a, 3)
                                 : g.randomMaxcut(shape->a, 2 * shape->a);
            break;
          case 'l': inst = g.labs(shape->a); break;
          case 'u': inst = g.ucc(shape->a, shape->b); break;
          default:
            inst = g.molecule("mol-(" + std::to_string(shape->a) + "," +
                                  std::to_string(shape->b) + ")",
                              shape->a, shape->b);
        }
        // toQasm prints |angle| < 1e-4 in exponent form ("2e-05"),
        // which fromQasm's angle evaluator reads as a subtraction and
        // rejects; keep job angles clear of it.
        for (PauliTerm &t : inst.terms)
            if (std::abs(t.angle) < 1e-3)
                t.angle = std::copysign(1e-3, t.angle);
        Job job;
        job.name = "j";
        job.name += std::to_string(jobs.size());
        job.name += "-";
        job.name += inst.name;
        job.qasm = toQasm(naiveSynthesis(inst.terms));
        job.portfolio = shape->portfolio;
        if (shape->noise) {
            job.shots = 2000;
            job.noiseSeed = g.seed() % 1000000;
            PauliString obs(inst.qubits);
            for (uint32_t q = 0; q < inst.qubits; ++q)
                obs.setOp(q, g.chance(0.5) ? PauliOp::Z : PauliOp::I);
            obs.setOp(g.pick(0, inst.qubits - 1), PauliOp::Z);
            job.observable = obs.toLabel();
        }

        JsonValue doc = JsonValue::object();
        doc["id"] = job.name;
        doc["qasm"] = job.qasm;
        JsonValue &config = doc["config"];
        config = JsonValue::object();
        config["portfolio"] = job.portfolio;
        if (job.shots > 0) {
            JsonValue &noise = config["noise"];
            noise = JsonValue::object();
            noise["shots"] = job.shots;
            noise["seed"] = job.noiseSeed;
            noise["observable"] = job.observable;
        }
        job.line = service::compactResultLine(doc);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<PauliString>
observablesFor(const Instance &inst, uint64_t seed)
{
    Rng rng(seed ^ 0xAB5);
    std::vector<PauliString> out;
    for (int k = 0; k < 8; ++k) {
        PauliString p(inst.qubits);
        for (uint32_t q = 0; q < inst.qubits; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        out.push_back(std::move(p));
    }
    return out;
}

} // namespace perfbench
