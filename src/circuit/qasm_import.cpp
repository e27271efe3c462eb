#include "circuit/qasm_import.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/quote_input.hpp"

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

/**
 * @name Character classes of the "C" locale, inlined: QASM is read as
 * bytes, and the <cctype> calls took half of the import time.
 * @{ */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isAlnum(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
/** @} */

/** Strip whitespace from both ends. */
std::string_view
trim(std::string_view s)
{
    size_t a = 0, b = s.size();
    while (a < b && isSpace(s[a]))
        ++a;
    while (b > a && isSpace(s[b - 1]))
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
    while (start > 0 && (isDigit(expr[start - 1]) || expr[start - 1] == '.'))
        --start;
    if (start == i - 1)
        return false; // no mantissa digits before the 'e'
    return start == 0 ||
           !(isAlnum(expr[start - 1]) || expr[start - 1] == '_');
}

/**
 * strtod over exactly @p token: true iff it reads a number and stops
 * only at the token's end (or at an embedded NUL, as on a C string).
 * Short tokens are terminated in a stack buffer.
 */
bool
parseDouble(std::string_view token, double &value)
{
    char buf[64];
    std::string heap;
    const char *text = buf;
    if (token.size() < sizeof buf) {
        std::memcpy(buf, token.data(), token.size());
        buf[token.size()] = '\0';
    } else {
        heap.assign(token);
        text = heap.c_str();
    }
    char *end = nullptr;
    value = std::strtod(text, &end);
    return end != text && *end == '\0';
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
        while (pos_ < text_.size() && isSpace(text_[pos_]))
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
            if (c == '(' || c == ')' || c == '*' || c == '/' || isSpace(c) ||
                ((c == '+' || c == '-') && !isExponentSign(text_, pos_)))
                break;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty())
            fail("empty angle expression");
        if (token == "pi")
            return kPi;
        double value;
        if (!parseDouble(token, value))
            fail("cannot evaluate angle " + quoteInput(token));
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
matchingParen(std::string_view s)
{
    size_t depth = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return i;
    }
    return std::string_view::npos;
}

/**
 * A bracketed register size or qubit index: decimal digits only
 * (surrounding blanks allowed). nullopt when the text is not such a
 * number or exceeds kMaxQasmQubits, so no value can wrap around.
 */
std::optional<uint64_t>
parseIndex(std::string_view text)
{
    const std::string_view digits = trim(text);
    if (digits.empty())
        return std::nullopt;
    uint64_t value = 0;
    for (char c : digits) {
        if (!isDigit(c))
            return std::nullopt;
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value > kMaxQasmQubits)
            return std::nullopt;
    }
    return value;
}

/** Parse "q[3]" (or "name[3]") and return the index. */
uint32_t
parseQubit(std::string_view token, std::string_view reg_name,
           uint32_t reg_size)
{
    const std::string_view t = trim(token);
    const size_t open = t.find('[');
    const size_t close = t.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open)
        fail("malformed qubit reference " + quoteInput(t));
    if (t.substr(0, open) != reg_name)
        fail("unknown register " + quoteInput(t.substr(0, open)));
    const auto idx = parseIndex(t.substr(open + 1, close - open - 1));
    if (!idx || *idx >= reg_size)
        fail("qubit index out of range in " + quoteInput(t));
    return static_cast<uint32_t>(*idx);
}

/** How a gate name takes its operands. */
enum class GateShape
{
    Rotation, //!< (angle) and one qubit
    One,      //!< one qubit, no parameters
    Two,      //!< two distinct qubits, no parameters
};

struct GateName
{
    std::string_view name;
    GateType type;
    GateShape shape;
};

constexpr GateName kGateNames[] = {
    { "rz", GateType::Rz, GateShape::Rotation },
    { "rx", GateType::Rx, GateShape::Rotation },
    { "ry", GateType::Ry, GateShape::Rotation },
    { "h", GateType::H, GateShape::One },
    { "s", GateType::S, GateShape::One },
    { "sdg", GateType::Sdg, GateShape::One },
    { "x", GateType::X, GateShape::One },
    { "y", GateType::Y, GateShape::One },
    { "z", GateType::Z, GateShape::One },
    { "sx", GateType::SX, GateShape::One },
    { "sxdg", GateType::SXdg, GateShape::One },
    { "cx", GateType::CX, GateShape::Two },
    { "cz", GateType::CZ, GateShape::Two },
    { "swap", GateType::Swap, GateShape::Two },
};

/** The supported gate called @p name, or nullptr. */
const GateName *
findGate(std::string_view name)
{
    for (const GateName &g : kGateNames)
        if (g.name == name)
            return &g;
    return nullptr;
}

/** The program being read: the register and the gates so far. */
struct ImportState
{
    QuantumCircuit qc;
    std::string regName;
    uint32_t regSize = 0;
    bool haveHeader = false;
};

/**
 * Apply one statement: @p stmt is trimmed, non-empty, free of comments
 * and newlines.
 */
void
importStatement(std::string_view stmt, ImportState &state)
{
    if (stmt.starts_with("OPENQASM")) {
        state.haveHeader = true;
        return;
    }
    if (stmt.starts_with("include") || stmt.starts_with("creg") ||
        stmt.starts_with("barrier") || stmt.starts_with("measure"))
        return;

    if (stmt.starts_with("qreg")) {
        if (state.regSize != 0)
            fail("multiple qreg declarations are not supported");
        const size_t open = stmt.find('[');
        const size_t close = stmt.find(']');
        if (open == std::string_view::npos ||
            close == std::string_view::npos || close < open)
            fail("malformed qreg declaration");
        state.regName = trim(stmt.substr(4, open - 4));
        const auto size = parseIndex(stmt.substr(open + 1, close - open - 1));
        if (!size)
            fail("qreg size must be an integer of at most " +
                 std::to_string(kMaxQasmQubits) + " in " + quoteInput(stmt));
        if (*size == 0)
            fail("qreg size must be positive");
        state.regSize = static_cast<uint32_t>(*size);
        state.qc = QuantumCircuit(state.regSize);
        return;
    }

    // Gate statement: name[(params)] operands.
    if (state.regSize == 0)
        fail("gate before qreg declaration");
    size_t name_end = 0;
    while (name_end < stmt.size() && isAlnum(stmt[name_end]))
        ++name_end;
    const std::string_view name = stmt.substr(0, name_end);
    std::string_view rest = trim(stmt.substr(name_end));

    double angle = 0.0;
    bool has_angle = false;
    if (!rest.empty() && rest.front() == '(') {
        const size_t close = matchingParen(rest);
        if (close == std::string_view::npos)
            fail("unterminated parameter list in " + quoteInput(stmt));
        angle = AngleParser(rest.substr(1, close - 1)).parse();
        if (!std::isfinite(angle))
            fail("non-finite angle in " + quoteInput(stmt));
        has_angle = true;
        rest = trim(rest.substr(close + 1));
    }

    // Operands: comma-separated qubit refs, every one checked; an empty
    // piece after a final ',' is no operand.
    uint32_t qubits[2] = { 0, 0 };
    size_t num_qubits = 0;
    for (size_t start = 0; start < rest.size();) {
        const size_t comma = std::min(rest.find(',', start), rest.size());
        const uint32_t q = parseQubit(rest.substr(start, comma - start),
                                      state.regName, state.regSize);
        if (num_qubits < 2)
            qubits[num_qubits] = q;
        ++num_qubits;
        start = comma + 1;
    }

    const GateName *gate = findGate(name);
    if (gate == nullptr)
        fail("unsupported gate " + quoteInput(name));
    switch (gate->shape) {
      case GateShape::Rotation:
        if (!has_angle || num_qubits != 1)
            fail("rotation " + quoteInput(name) +
                 " needs (angle) and 1 qubit");
        state.qc.append(Gate(gate->type, qubits[0], angle));
        break;
      case GateShape::One:
        if (has_angle || num_qubits != 1)
            fail("gate " + quoteInput(name) + " takes exactly 1 qubit");
        state.qc.append(Gate(gate->type, qubits[0]));
        break;
      case GateShape::Two:
        if (has_angle || num_qubits != 2)
            fail("gate " + quoteInput(name) + " takes exactly 2 qubits");
        if (qubits[0] == qubits[1])
            fail("gate " + quoteInput(name) + " repeats qubit operand in " +
                 quoteInput(stmt));
        state.qc.append(Gate(gate->type, qubits[0], qubits[1]));
        break;
    }
}

/**
 * @p text with its comments dropped and each newline read as a blank:
 * how a statement that spans lines or carries a comment reads.
 */
std::string
foldLines(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text.compare(i, 2, "//") == 0) {
            const size_t eol = text.find('\n', i);
            if (eol == std::string_view::npos)
                break;
            i = eol;
        }
        out += text[i] == '\n' ? ' ' : text[i];
    }
    return out;
}

} // namespace

QuantumCircuit
fromQasm(const std::string &source)
{
    // One pass over the text: a statement runs to the next ';' outside
    // a "//" comment (which ends at the newline), and newlines read as
    // blanks. Each statement is the view from its first to its last
    // character that is neither blank nor commented out; only one with
    // a newline or comment inside that span is copied, to fold it.
    const std::string_view text(source);
    constexpr size_t npos = std::string_view::npos;
    ImportState state;
    for (size_t pos = 0; pos < text.size(); ++pos) {
        size_t first = npos, last = 0;
        bool broken = false; // newline or comment after the last content
        bool folded = false; // ... followed by more content
        for (; pos < text.size() && text[pos] != ';'; ++pos) {
            const char c = text[pos];
            if (c == '/' && text.compare(pos, 2, "//") == 0) {
                const size_t eol = text.find('\n', pos);
                pos = (eol == npos ? text.size() : eol) - 1;
                broken = first != npos;
                continue;
            }
            if (isSpace(c)) {
                broken |= c == '\n' && first != npos;
                continue;
            }
            if (first == npos)
                first = pos;
            folded |= broken;
            broken = false;
            last = pos + 1;
        }
        if (first == npos)
            continue;
        const std::string_view stmt = text.substr(first, last - first);
        if (folded)
            importStatement(foldLines(stmt), state);
        else
            importStatement(stmt, state);
    }

    if (!state.haveHeader)
        fail("missing OPENQASM header");
    if (state.regSize == 0)
        fail("missing qreg declaration");
    return std::move(state.qc);
}

} // namespace quclear
