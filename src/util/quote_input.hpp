/**
 * @file
 * Quoting of untrusted input inside error messages, shared by the text
 * parsers (QASM import, Hamiltonian files).
 */
#ifndef QUCLEAR_UTIL_QUOTE_INPUT_HPP
#define QUCLEAR_UTIL_QUOTE_INPUT_HPP

#include <cstddef>
#include <string>
#include <string_view>

namespace quclear {

/** Longest piece of the input an error message repeats. */
inline constexpr size_t kMaxQuotedBytes = 64;

/**
 * Input text for an error message, in single quotes: at most
 * kMaxQuotedBytes of it, then "..." when it was cut, so a hostile
 * megabyte line cannot make a megabyte error.
 */
inline std::string
quoteInput(std::string_view text)
{
    if (text.size() <= kMaxQuotedBytes)
        return "'" + std::string(text) + "'";
    return "'" + std::string(text.substr(0, kMaxQuotedBytes)) + "...'";
}

} // namespace quclear

#endif // QUCLEAR_UTIL_QUOTE_INPUT_HPP
