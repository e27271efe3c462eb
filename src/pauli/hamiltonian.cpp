#include "pauli/hamiltonian.hpp"

#include <cassert>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/statevector.hpp"
#include "util/quote_input.hpp"

namespace quclear {

void
Hamiltonian::addTerm(PauliString pauli, double coefficient)
{
    if (terms_.empty() && numQubits_ == 0)
        numQubits_ = pauli.numQubits();
    if (pauli.numQubits() != numQubits_)
        throw std::invalid_argument(
            "Hamiltonian term qubit count mismatch");
    terms_.push_back({ std::move(pauli), coefficient });
}

void
Hamiltonian::addTerm(const std::string &label, double coefficient)
{
    addTerm(PauliString::fromLabel(label), coefficient);
}

Hamiltonian
Hamiltonian::fromText(const std::string &text)
{
    Hamiltonian h;
    std::istringstream lines(text);
    std::string line;
    size_t line_number = 0;
    while (std::getline(lines, line)) {
        ++line_number;
        const size_t comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        std::istringstream fields(line);
        std::string token;
        if (!(fields >> token))
            continue; // blank or comment-only line
        const auto error = [line_number](const std::string &what) {
            return std::invalid_argument("Hamiltonian line " +
                                         std::to_string(line_number) +
                                         ": " + what);
        };
        char *end = nullptr;
        const double coefficient = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() ||
            !std::isfinite(coefficient)) {
            throw error("coefficient " + quoteInput(token) +
                        " is not a finite number");
        }
        std::string label;
        if (!(fields >> label))
            throw error("missing Pauli label");
        std::string trailing;
        if (fields >> trailing)
            throw error("unexpected trailing token " + quoteInput(trailing));
        try {
            h.addTerm(label, coefficient);
        } catch (const std::invalid_argument &e) {
            throw error("Pauli label " + quoteInput(label) + ": " +
                        e.what());
        }
    }
    if (h.terms_.empty())
        throw std::invalid_argument("Hamiltonian text has no terms");
    return h;
}

std::string
Hamiltonian::toText() const
{
    std::ostringstream out;
    out << std::setprecision(17);
    for (const auto &term : terms_)
        out << term.coefficient << "  " << term.pauli.toLabel() << "\n";
    return out.str();
}

std::vector<PauliString>
Hamiltonian::observables() const
{
    std::vector<PauliString> obs;
    obs.reserve(terms_.size());
    for (const auto &term : terms_)
        obs.push_back(term.pauli);
    return obs;
}

std::vector<PauliTerm>
Hamiltonian::trotterTerms(double time, uint32_t steps) const
{
    assert(steps > 0);
    const double dt = time / steps;
    std::vector<PauliTerm> out;
    out.reserve(size_t{ steps } * terms_.size());
    for (uint32_t s = 0; s < steps; ++s) {
        for (const auto &term : terms_) {
            if (term.pauli.isIdentity())
                continue; // global phase
            // e^{-iHt} ~ prod e^{-i c_k P_k dt} = prod e^{i P_k (-c_k dt)}.
            out.emplace_back(term.pauli, -term.coefficient * dt);
        }
    }
    return out;
}

std::vector<PauliTerm>
Hamiltonian::trotterTermsSecondOrder(double time, uint32_t steps) const
{
    assert(steps > 0);
    const double dt = time / steps;
    std::vector<PauliTerm> out;
    out.reserve(size_t{ steps } * terms_.size() * 2);
    for (uint32_t s = 0; s < steps; ++s) {
        for (size_t k = 0; k < terms_.size(); ++k) {
            if (terms_[k].pauli.isIdentity())
                continue;
            out.emplace_back(terms_[k].pauli,
                             -terms_[k].coefficient * dt / 2);
        }
        for (size_t k = terms_.size(); k-- > 0;) {
            if (terms_[k].pauli.isIdentity())
                continue;
            out.emplace_back(terms_[k].pauli,
                             -terms_[k].coefficient * dt / 2);
        }
    }
    return out;
}

Hamiltonian
Hamiltonian::simplified(double cutoff) const
{
    Hamiltonian out(numQubits_);
    // Keyed on the unsigned bit pattern; signs fold into coefficients.
    std::map<std::string, size_t> index;
    for (const auto &term : terms_) {
        PauliString unsigned_pauli = term.pauli;
        const double sign = (unsigned_pauli.phase() == 2) ? -1.0 : 1.0;
        assert(unsigned_pauli.phase() == 0 ||
               unsigned_pauli.phase() == 2);
        unsigned_pauli.setPhase(0);
        const std::string key = unsigned_pauli.toLabel();
        const double coeff = sign * term.coefficient;
        auto it = index.find(key);
        if (it == index.end()) {
            index.emplace(key, out.terms_.size());
            out.terms_.push_back({ std::move(unsigned_pauli), coeff });
        } else {
            out.terms_[it->second].coefficient += coeff;
        }
    }
    // Drop negligible terms in place.
    std::vector<WeightedPauli> kept;
    for (auto &term : out.terms_)
        if (std::fabs(term.coefficient) > cutoff)
            kept.push_back(std::move(term));
    out.terms_ = std::move(kept);
    return out;
}

Hamiltonian
Hamiltonian::operator+(const Hamiltonian &other) const
{
    assert(numQubits_ == other.numQubits_);
    Hamiltonian out = *this;
    out.terms_.insert(out.terms_.end(), other.terms_.begin(),
                      other.terms_.end());
    return out.simplified();
}

Hamiltonian
Hamiltonian::operator*(double scalar) const
{
    Hamiltonian out = *this;
    for (auto &term : out.terms_)
        term.coefficient *= scalar;
    return out;
}

Hamiltonian
Hamiltonian::product(const Hamiltonian &other) const
{
    assert(numQubits_ == other.numQubits_);
    // Cross terms of anticommuting pairs carry factors of +-i; for
    // Hermitian results (e.g. H^2) they cancel pairwise. Accumulate
    // complex coefficients per unsigned Pauli, then require the
    // imaginary residue to vanish.
    std::map<std::string, std::complex<double>> accum;
    std::map<std::string, PauliString> pattern;
    for (const auto &a : terms_) {
        for (const auto &b : other.terms_) {
            PauliString p = a.pauli;
            p.mulRight(b.pauli);
            std::complex<double> phase_factor;
            switch (p.phase()) {
              case 0: phase_factor = { 1.0, 0.0 }; break;
              case 1: phase_factor = { 0.0, 1.0 }; break;
              case 2: phase_factor = { -1.0, 0.0 }; break;
              default: phase_factor = { 0.0, -1.0 }; break;
            }
            p.setPhase(0);
            const std::string key = p.toLabel();
            accum[key] += phase_factor * a.coefficient * b.coefficient;
            pattern.emplace(key, std::move(p));
        }
    }
    Hamiltonian out(numQubits_);
    for (const auto &[key, coeff] : accum) {
        if (std::fabs(coeff.imag()) > 1e-9)
            throw std::invalid_argument(
                "Hamiltonian::product: result is not Hermitian");
        if (std::fabs(coeff.real()) > 1e-12)
            out.terms_.push_back({ pattern.at(key), coeff.real() });
    }
    return out;
}

void
applyHamiltonian(const Hamiltonian &h, const Statevector &in,
                 Statevector &out)
{
    assert(in.numQubits() == h.numQubits());
    std::vector<Statevector::Complex> acc(in.dim(), Statevector::Complex{});
    for (const auto &term : h.terms()) {
        Statevector scratch = in;
        scratch.applyPauli(term.pauli);
        for (uint64_t b = 0; b < in.dim(); ++b)
            acc[b] += term.coefficient * scratch.amplitude(b);
    }
    out = Statevector(in.numQubits());
    out.setAmplitudes(std::move(acc));
}

double
hamiltonianExpectation(const Hamiltonian &h, const Statevector &psi)
{
    double energy = 0.0;
    for (const auto &term : h.terms())
        energy += term.coefficient * psi.expectation(term.pauli);
    return energy;
}

double
minimumEigenvalue(const Hamiltonian &h, uint32_t iterations)
{
    const uint32_t n = h.numQubits();
    // Power iteration on (c.I - H) with c = sum |coeff| (spectral bound),
    // converging to the smallest eigenvalue of H.
    double shift = 0.0;
    for (const auto &term : h.terms())
        shift += std::fabs(term.coefficient);

    // Start from a deterministic, generically non-orthogonal state.
    Statevector psi(n);
    QuantumCircuit spread(n);
    for (uint32_t q = 0; q < n; ++q) {
        spread.h(q);
        spread.rz(q, 0.37 * (q + 1));
        if (q + 1 < n)
            spread.cx(q, q + 1);
    }
    psi.applyCircuit(spread);

    double eigen = 0.0;
    Statevector hpsi(n);
    for (uint32_t it = 0; it < iterations; ++it) {
        applyHamiltonian(h, psi, hpsi);
        // psi <- normalize(shift.psi - H psi)
        std::vector<Statevector::Complex> next(psi.dim());
        double norm2 = 0.0;
        for (uint64_t b = 0; b < psi.dim(); ++b) {
            next[b] = shift * psi.amplitude(b) - hpsi.amplitude(b);
            norm2 += std::norm(next[b]);
        }
        const double inv = 1.0 / std::sqrt(norm2);
        for (auto &amp : next)
            amp *= inv;
        psi.setAmplitudes(std::move(next));
        eigen = hamiltonianExpectation(h, psi);
    }
    return eigen;
}

} // namespace quclear
