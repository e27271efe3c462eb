#include "circuit/qasm_import.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace quclear {

namespace {

constexpr double kPi = 3.14159265358979323846;

[[noreturn]] void
fail(const std::string &message)
{
    throw std::invalid_argument("QASM parse error: " + message);
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
isExponentSign(const std::string &expr, size_t i)
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
 * Evaluate a restricted angle expression: products/quotients of `pi`
 * and numeric literals (exponent form included) with optional leading
 * sign, plus binary +/- at the top level. Covers everything
 * Qiskit-style exporters and toQasm emit.
 */
double
evalAngle(const std::string &expr_in)
{
    const std::string expr = trim(expr_in);
    if (expr.empty())
        fail("empty angle expression");

    // Top-level addition/subtraction (right-to-left, ignoring a leading
    // sign which belongs to the first factor).
    int depth = 0;
    for (size_t i = expr.size(); i-- > 1;) {
        const char c = expr[i];
        if (c == ')')
            ++depth;
        else if (c == '(')
            --depth;
        else if (depth == 0 && (c == '+' || c == '-')) {
            const char prev = expr[i - 1];
            if (prev == '*' || prev == '/' || prev == '+' || prev == '-' ||
                isExponentSign(expr, i))
                continue; // sign of the next factor or of an exponent
            const double lhs = evalAngle(expr.substr(0, i));
            const double rhs = evalAngle(expr.substr(i + 1));
            return c == '+' ? lhs + rhs : lhs - rhs;
        }
    }

    // Multiplication/division chain.
    for (size_t i = expr.size(); i-- > 1;) {
        const char c = expr[i];
        if (c == ')')
            ++depth;
        else if (c == '(')
            --depth;
        else if (depth == 0 && (c == '*' || c == '/')) {
            const double lhs = evalAngle(expr.substr(0, i));
            const double rhs = evalAngle(expr.substr(i + 1));
            if (c == '/' && rhs == 0.0)
                fail("division by zero in angle");
            return c == '*' ? lhs * rhs : lhs / rhs;
        }
    }

    if (expr.front() == '(' && expr.back() == ')')
        return evalAngle(expr.substr(1, expr.size() - 2));
    if (expr == "pi")
        return kPi;
    if (expr == "-pi")
        return -kPi;
    if (expr.front() == '-')
        return -evalAngle(expr.substr(1));
    if (expr.front() == '+')
        return evalAngle(expr.substr(1));

    char *end = nullptr;
    const double value = std::strtod(expr.c_str(), &end);
    if (end == expr.c_str() || *end != '\0')
        fail("cannot evaluate angle '" + expr + "'");
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
        fail("malformed qubit reference '" + t + "'");
    if (t.substr(0, open) != reg_name)
        fail("unknown register '" + t.substr(0, open) + "'");
    const long idx = std::strtol(t.substr(open + 1).c_str(), nullptr, 10);
    if (idx < 0 || static_cast<uint32_t>(idx) >= reg_size)
        fail("qubit index out of range in '" + t + "'");
    return static_cast<uint32_t>(idx);
}

} // namespace

QuantumCircuit
fromQasm(const std::string &source)
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
            if (open == std::string::npos || close == std::string::npos)
                fail("malformed qreg declaration");
            reg_name = trim(stmt.substr(4, open - 4));
            reg_size = static_cast<uint32_t>(
                std::strtoul(stmt.substr(open + 1).c_str(), nullptr, 10));
            if (reg_size == 0)
                fail("qreg size must be positive");
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
            const size_t close = rest.find(')');
            if (close == std::string::npos)
                fail("unterminated parameter list in '" + stmt + "'");
            angle = evalAngle(rest.substr(1, close - 1));
            if (!std::isfinite(angle))
                fail("non-finite angle in '" + stmt + "'");
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
                fail("rotation '" + name + "' needs (angle) and 1 qubit");
            qc.append(Gate(it->second, qubits[0], angle));
        } else if (auto it1 = one_qubit.find(name);
                   it1 != one_qubit.end()) {
            if (has_angle || qubits.size() != 1)
                fail("gate '" + name + "' takes exactly 1 qubit");
            qc.append(Gate(it1->second, qubits[0]));
        } else if (auto it2 = two_qubit.find(name);
                   it2 != two_qubit.end()) {
            if (has_angle || qubits.size() != 2)
                fail("gate '" + name + "' takes exactly 2 qubits");
            if (qubits[0] == qubits[1])
                fail("gate '" + name + "' repeats qubit operand in '" +
                     stmt + "'");
            qc.append(Gate(it2->second, qubits[0], qubits[1]));
        } else {
            fail("unsupported gate '" + name + "'");
        }
    }

    if (!have_header)
        fail("missing OPENQASM header");
    if (reg_size == 0)
        fail("missing qreg declaration");
    return qc;
}

} // namespace quclear
