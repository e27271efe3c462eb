#include "core/circuit_to_paulis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/simd_dispatch.hpp"

namespace quclear {

namespace {

/**
 * A Pauli on a gate's two qubit slots (slot 0 = q0, slot 1 = q1): bit j
 * of x / z is the x / z bit of slot j, times i^phase.
 */
struct LocalPauli
{
    uint8_t x = 0;
    uint8_t z = 0;
    uint8_t phase = 0;
};

/** Number of GateType values, the index of the table below. */
constexpr size_t kGateTypes = static_cast<size_t>(GateType::Swap) + 1;

/**
 * For every Clifford gate g, the images g~ G g of the generators X_q0,
 * Z_q0, X_q1, Z_q1 (in that order). Computed once by the same
 * single-gate conjugation rules the circuit uses (applyGateToPauli on a
 * two-qubit string), so phases follow PauliString exactly.
 */
const std::array<std::array<LocalPauli, 4>, kGateTypes> &
inverseGeneratorImages()
{
    static const auto table = [] {
        std::array<std::array<LocalPauli, 4>, kGateTypes> out{};
        for (size_t t = 0; t < kGateTypes; ++t) {
            const auto type = static_cast<GateType>(t);
            if (!isClifford(type))
                continue;
            const GateType inv = inverseType(type);
            const Gate g = isTwoQubit(type) ? Gate(inv, 0u, 1u)
                                            : Gate(inv, 0u);
            for (uint32_t i = 0; i < 4; ++i) {
                PauliString p(2);
                p.setOp(i / 2, i % 2 ? PauliOp::Z : PauliOp::X);
                applyGateToPauli(p, g);
                LocalPauli &image = out[t][i];
                image.x = static_cast<uint8_t>(p.xWords()[0]);
                image.z = static_cast<uint8_t>(p.zWords()[0]);
                image.phase = p.phase();
            }
        }
        return out;
    }();
    return table;
}

/**
 * Row-major inverse tableau C~ . P . C of the Clifford prefix C read so
 * far. Row 2q holds the image of X_q and row 2q+1 the image of Z_q,
 * each as [x words | z words] plus a phase exponent (0 or 2; rows are
 * Hermitian). Prepending g~ rewrites only the rows on g's qubits: each
 * becomes the product of at most four old rows, X_q's before Z_q's with
 * one extra i per Y — the phase convention of CliffordTableau::conjugate,
 * so every term comes out bit-identical to conjugating through a full
 * tableau. (Conjugate multiplies in ascending qubit order; rows of
 * different qubits commute, so taking q0's before q1's is the same.)
 */
class InverseTableau
{
  public:
    explicit InverseTableau(uint32_t n)
        : words_((n + 63) / 64), bits_(4 * static_cast<size_t>(n) * words_),
          phases_(2 * static_cast<size_t>(n), 0),
          scratch_(8 * static_cast<size_t>(words_))
    {
        for (uint32_t q = 0; q < n; ++q) {
            const uint64_t bit = 1ULL << (q & 63);
            x(2 * q)[q >> 6] = bit;
            z(2 * q + 1)[q >> 6] = bit;
        }
    }

    /** U <- U . g~ for a Clifford gate g. */
    void
    prependInverse(const Gate &g)
    {
        const auto &images =
            inverseGeneratorImages()[static_cast<size_t>(g.type)];
        const bool two = isTwoQubit(g.type);
        const uint32_t slot_qubit[2] = { g.q0, g.q1 };
        const uint32_t count = two ? 4 : 2;
        for (uint32_t i = 0; i < count; ++i) {
            const LocalPauli &image = images[i];
            uint64_t *out_x =
                scratch_.data() + 2 * static_cast<size_t>(i) * words_;
            uint64_t *out_z = out_x + words_;
            std::fill(out_x, out_x + 2 * words_, 0);
            uint32_t phase = image.phase;
            for (uint32_t slot = 0; slot < 2; ++slot) {
                const bool bx = (image.x >> slot) & 1;
                const bool bz = (image.z >> slot) & 1;
                const uint32_t row = 2 * slot_qubit[slot];
                if (bx)
                    phase += mulRow(out_x, out_z, row);
                if (bz)
                    phase += mulRow(out_x, out_z, row + 1);
                if (bx && bz)
                    ++phase; // Y = i X Z
            }
            newPhases_[i] = static_cast<uint8_t>(phase & 3);
        }
        for (uint32_t i = 0; i < count; ++i) {
            const uint32_t row = 2 * slot_qubit[i / 2] + i % 2;
            const uint64_t *src =
                scratch_.data() + 2 * static_cast<size_t>(i) * words_;
            std::copy(src, src + 2 * words_, x(row));
            phases_[row] = newPhases_[i];
        }
    }

    /**
     * C~ A_q C for the single-qubit Pauli A (X, Y or Z) as letters plus
     * sign: writes the letters into @p out and returns +1 or -1.
     */
    int
    image(uint32_t q, PauliOp axis, PauliString &out)
    {
        uint64_t *out_x = scratch_.data();
        uint64_t *out_z = out_x + words_;
        uint32_t phase;
        if (axis == PauliOp::Y) {
            std::fill(out_x, out_x + 2 * words_, 0);
            phase = mulRow(out_x, out_z, 2 * q) +
                    mulRow(out_x, out_z, 2 * q + 1) + 1;
        } else {
            const uint32_t row = axis == PauliOp::X ? 2 * q : 2 * q + 1;
            std::copy(x(row), x(row) + 2 * words_, out_x);
            phase = phases_[row];
        }
        phase &= 3;
        assert((phase & 1) == 0 && "conjugated Pauli must be Hermitian");
        out.assignWords({ out_x, words_ }, { out_z, words_ }, 0);
        return phase == 0 ? 1 : -1;
    }

  private:
    uint64_t *x(uint32_t row)
    {
        return bits_.data() + 2 * static_cast<size_t>(row) * words_;
    }
    uint64_t *z(uint32_t row) { return x(row) + words_; }

    /** out <- out . row; returns the i-exponent it adds (row sign included). */
    uint32_t
    mulRow(uint64_t *out_x, uint64_t *out_z, uint32_t row)
    {
        return phases_[row] + simd::active().mulWords(out_x, out_z, x(row),
                                                      z(row), words_);
    }

    uint32_t words_;
    std::vector<uint64_t> bits_;
    std::vector<uint8_t> phases_;
    /** Up to four new rows, built before any old row is overwritten. */
    std::vector<uint64_t> scratch_;
    std::array<uint8_t, 4> newPhases_{};
};

} // namespace

PauliProgram
circuitToPauliProgram(const QuantumCircuit &qc)
{
    const uint32_t n = qc.numQubits();
    PauliProgram program;
    program.clifford = QuantumCircuit(n);

    // inv tracks C~ . P . C for the Clifford prefix C collected so far,
    // maintained by prepending g~ for every Clifford gate g.
    InverseTableau inv(n);

    for (const Gate &g : qc.gates()) {
        if (isClifford(g.type)) {
            program.clifford.append(g);
            inv.prependInverse(g);
            continue;
        }
        // Rotation around axis A: Rz -> Z, Rx -> X, Ry -> Y; the term is
        // e^{i (C~ A_q C) (-theta/2)}.
        PauliOp axis = PauliOp::Z;
        if (g.type == GateType::Rx)
            axis = PauliOp::X;
        else if (g.type == GateType::Ry)
            axis = PauliOp::Y;
        PauliString p(n);
        const int sign = inv.image(g.q0, axis, p);
        program.terms.emplace_back(std::move(p), -0.5 * g.angle * sign);
    }
    return program;
}

} // namespace quclear
