#include "reference_frontend.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/qasm_import.hpp"
#include "reference_tableau.hpp"

namespace quclear {

namespace {

constexpr double kPi = 3.14159265358979323846;

/**
 * Deepest parenthesis nesting accepted inside a parameter list. Real
 * exporters stay in single digits; the cap keeps a hostile line from
 * recursing off the stack.
 */
constexpr int kMaxAngleNesting = 64;

[[noreturn]] void
fail(const std::string &message)
{
    throw std::invalid_argument("QASM parse error: " + message);
}

/** Longest piece of the input an error message repeats. */
constexpr size_t kMaxQuotedBytes = 64;

/**
 * Input text for an error message, in single quotes: at most
 * kMaxQuotedBytes of it, then "..." when it was cut, so a hostile
 * megabyte line cannot make a megabyte error.
 */
std::string
quote(std::string_view text)
{
    if (text.size() <= kMaxQuotedBytes)
        return "'" + std::string(text) + "'";
    return "'" + std::string(text.substr(0, kMaxQuotedBytes)) + "...'";
}

/** Strip whitespace from both ends. */
std::string
trim(const std::string &s)
{
    size_t a = 0, b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a])))
        ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    return s.substr(a, b - a);
}

/**
 * True iff the '+'/'-' at @p i is the sign of an exponent: it directly
 * follows an 'e'/'E' that ends a numeric mantissa such as `2.08e` (so
 * `2.08e-05` stays one literal instead of splitting into `2.08e` minus
 * `05`).
 */
bool
isExponentSign(std::string_view expr, size_t i)
{
    if (i < 2 || (expr[i - 1] != 'e' && expr[i - 1] != 'E'))
        return false;
    size_t start = i - 1;
    while (start > 0 &&
           (std::isdigit(static_cast<unsigned char>(expr[start - 1])) ||
            expr[start - 1] == '.'))
        --start;
    if (start == i - 1)
        return false; // no mantissa digits before the 'e'
    return start == 0 ||
           !(std::isalnum(static_cast<unsigned char>(expr[start - 1])) ||
             expr[start - 1] == '_');
}

/**
 * Evaluator for a parameter list's angle expression, one pass over the
 * text:
 *
 *     sum     := product (('+' | '-') product)*
 *     product := factor (('*' | '/') factor)*
 *     factor  := ('+' | '-')* ('(' sum ')' | "pi" | numeric literal)
 *
 * Operators fold left to right; literals are strtod's, exponent form
 * included. Covers everything Qiskit-style exporters and toQasm emit.
 * Only '(' recurses, and not deeper than kMaxAngleNesting.
 */
class AngleParser
{
  public:
    explicit AngleParser(std::string_view text) : text_(text) {}

    double
    parse()
    {
        const double value = sum(0);
        if (pos_ != text_.size())
            fail("unexpected '" + std::string(1, text_[pos_]) +
                 "' in angle expression");
        return value;
    }

  private:
    /** Skip blanks; the next character, or '\0' at the end. */
    char
    peek()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    double
    sum(int nesting)
    {
        double value = product(nesting);
        for (char op = peek(); op == '+' || op == '-'; op = peek()) {
            ++pos_;
            const double rhs = product(nesting);
            value = op == '+' ? value + rhs : value - rhs;
        }
        return value;
    }

    double
    product(int nesting)
    {
        double value = factor(nesting);
        for (char op = peek(); op == '*' || op == '/'; op = peek()) {
            ++pos_;
            const double rhs = factor(nesting);
            if (op == '/' && rhs == 0.0)
                fail("division by zero in angle");
            value = op == '*' ? value * rhs : value / rhs;
        }
        return value;
    }

    double
    factor(int nesting)
    {
        bool negate = false;
        for (char c = peek(); c == '+' || c == '-'; c = peek()) {
            negate ^= c == '-';
            ++pos_;
        }
        double value;
        if (peek() == '(') {
            if (nesting == kMaxAngleNesting)
                fail("angle expression nests deeper than " +
                     std::to_string(kMaxAngleNesting) + " levels");
            ++pos_;
            value = sum(nesting + 1);
            if (peek() != ')')
                fail("expected ')' in angle expression");
            ++pos_;
        } else {
            value = literal();
        }
        return negate ? -value : value;
    }

    double
    literal()
    {
        const size_t start = pos_;
        for (; pos_ < text_.size(); ++pos_) {
            const char c = text_[pos_];
            if (c == '(' || c == ')' || c == '*' || c == '/' ||
                std::isspace(static_cast<unsigned char>(c)) ||
                ((c == '+' || c == '-') && !isExponentSign(text_, pos_)))
                break;
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (token.empty())
            fail("empty angle expression");
        if (token == "pi")
            return kPi;
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            fail("cannot evaluate angle " + quote(token));
        return value;
    }

    std::string_view text_;
    size_t pos_ = 0;
};

/**
 * Index of the ')' that closes the '(' at s[0], or npos when the
 * parentheses never balance.
 */
size_t
matchingParen(const std::string &s)
{
    size_t depth = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/**
 * A bracketed register size or qubit index: decimal digits only
 * (surrounding blanks allowed). nullopt when the text is not such a
 * number or exceeds kMaxQasmQubits, so no value can wrap around.
 */
std::optional<uint64_t>
parseIndex(const std::string &text)
{
    const std::string digits = trim(text);
    if (digits.empty())
        return std::nullopt;
    uint64_t value = 0;
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value > kMaxQasmQubits)
            return std::nullopt;
    }
    return value;
}

/** Parse "q[3]" (or "name[3]") and return the index. */
uint32_t
parseQubit(const std::string &token, const std::string &reg_name,
           uint32_t reg_size)
{
    const std::string t = trim(token);
    const size_t open = t.find('[');
    const size_t close = t.find(']');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        fail("malformed qubit reference " + quote(t));
    if (t.substr(0, open) != reg_name)
        fail("unknown register " + quote(t.substr(0, open)));
    const auto idx = parseIndex(t.substr(open + 1, close - open - 1));
    if (!idx || *idx >= reg_size)
        fail("qubit index out of range in " + quote(t));
    return static_cast<uint32_t>(*idx);
}

} // namespace

QuantumCircuit
referenceFromQasm(const std::string &source)
{
    // Split into ';'-terminated statements, removing // comments.
    std::string cleaned;
    cleaned.reserve(source.size());
    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
        const size_t comment = line.find("//");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        cleaned += line;
        cleaned += ' ';
    }

    static const std::map<std::string, GateType> one_qubit = {
        { "h", GateType::H },       { "s", GateType::S },
        { "sdg", GateType::Sdg },   { "x", GateType::X },
        { "y", GateType::Y },       { "z", GateType::Z },
        { "sx", GateType::SX },     { "sxdg", GateType::SXdg },
    };
    static const std::map<std::string, GateType> rotations = {
        { "rz", GateType::Rz },
        { "rx", GateType::Rx },
        { "ry", GateType::Ry },
    };
    static const std::map<std::string, GateType> two_qubit = {
        { "cx", GateType::CX },
        { "cz", GateType::CZ },
        { "swap", GateType::Swap },
    };

    QuantumCircuit qc;
    std::string reg_name;
    uint32_t reg_size = 0;
    bool have_header = false;

    std::istringstream statements(cleaned);
    std::string stmt;
    while (std::getline(statements, stmt, ';')) {
        stmt = trim(stmt);
        if (stmt.empty())
            continue;

        if (stmt.rfind("OPENQASM", 0) == 0) {
            have_header = true;
            continue;
        }
        if (stmt.rfind("include", 0) == 0 || stmt.rfind("creg", 0) == 0 ||
            stmt.rfind("barrier", 0) == 0 ||
            stmt.rfind("measure", 0) == 0)
            continue;

        if (stmt.rfind("qreg", 0) == 0) {
            if (reg_size != 0)
                fail("multiple qreg declarations are not supported");
            const size_t open = stmt.find('[');
            const size_t close = stmt.find(']');
            if (open == std::string::npos || close == std::string::npos ||
                close < open)
                fail("malformed qreg declaration");
            reg_name = trim(stmt.substr(4, open - 4));
            const auto size =
                parseIndex(stmt.substr(open + 1, close - open - 1));
            if (!size)
                fail("qreg size must be an integer of at most " +
                     std::to_string(kMaxQasmQubits) + " in " + quote(stmt));
            if (*size == 0)
                fail("qreg size must be positive");
            reg_size = static_cast<uint32_t>(*size);
            qc = QuantumCircuit(reg_size);
            continue;
        }

        // Gate statement: name[(params)] operands.
        if (reg_size == 0)
            fail("gate before qreg declaration");
        size_t name_end = 0;
        while (name_end < stmt.size() &&
               (std::isalnum(static_cast<unsigned char>(stmt[name_end]))))
            ++name_end;
        const std::string name = stmt.substr(0, name_end);
        std::string rest = trim(stmt.substr(name_end));

        double angle = 0.0;
        bool has_angle = false;
        if (!rest.empty() && rest.front() == '(') {
            const size_t close = matchingParen(rest);
            if (close == std::string::npos)
                fail("unterminated parameter list in " + quote(stmt));
            angle =
                AngleParser(std::string_view(rest).substr(1, close - 1))
                    .parse();
            if (!std::isfinite(angle))
                fail("non-finite angle in " + quote(stmt));
            has_angle = true;
            rest = trim(rest.substr(close + 1));
        }

        // Operands: comma-separated qubit refs.
        std::vector<uint32_t> qubits;
        std::istringstream ops(rest);
        std::string op;
        while (std::getline(ops, op, ','))
            qubits.push_back(parseQubit(op, reg_name, reg_size));

        if (auto it = rotations.find(name); it != rotations.end()) {
            if (!has_angle || qubits.size() != 1)
                fail("rotation " + quote(name) + " needs (angle) and 1 qubit");
            qc.append(Gate(it->second, qubits[0], angle));
        } else if (auto it1 = one_qubit.find(name);
                   it1 != one_qubit.end()) {
            if (has_angle || qubits.size() != 1)
                fail("gate " + quote(name) + " takes exactly 1 qubit");
            qc.append(Gate(it1->second, qubits[0]));
        } else if (auto it2 = two_qubit.find(name);
                   it2 != two_qubit.end()) {
            if (has_angle || qubits.size() != 2)
                fail("gate " + quote(name) + " takes exactly 2 qubits");
            if (qubits[0] == qubits[1])
                fail("gate " + quote(name) + " repeats qubit operand in " +
                     quote(stmt));
            qc.append(Gate(it2->second, qubits[0], qubits[1]));
        } else {
            fail("unsupported gate " + quote(name));
        }
    }

    if (!have_header)
        fail("missing OPENQASM header");
    if (reg_size == 0)
        fail("missing qreg declaration");
    return qc;
}

PauliProgram
referenceCircuitToPauliProgram(const QuantumCircuit &qc)
{
    const uint32_t n = qc.numQubits();
    PauliProgram program;
    program.clifford = QuantumCircuit(n);

    // T tracks C~ . P . C for the Clifford prefix C collected so far:
    // maintained by prepending g~ for every Clifford gate g.
    ReferenceTableau inv(n);

    for (const Gate &g : qc.gates()) {
        if (isClifford(g.type)) {
            program.clifford.append(g);
            Gate ginv = g;
            ginv.type = inverseType(g.type);
            inv.prependGate(ginv);
            continue;
        }
        // Rotation around axis A: Rz -> Z, Rx -> X, Ry -> Y; the term is
        // e^{i (C~ A_q C) (-theta/2)}.
        PauliOp axis = PauliOp::Z;
        if (g.type == GateType::Rx)
            axis = PauliOp::X;
        else if (g.type == GateType::Ry)
            axis = PauliOp::Y;
        PauliString a(n);
        a.setOp(g.q0, axis);
        PauliString p = inv.conjugate(a);
        const int sign = p.sign();
        p.setPhase(0);
        program.terms.emplace_back(std::move(p),
                                   -0.5 * g.angle * sign);
    }
    return program;
}

} // namespace quclear
