/**
 * @file
 * Strict numeric option parsing shared by the command-line tools.
 */

#ifndef BFREE_TOOLS_ARG_PARSE_HH
#define BFREE_TOOLS_ARG_PARSE_HH

#include <cctype>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace bfree::tools {

/**
 * Parse @p value, the argument of option @p flag, as a decimal number
 * in [0, @p max]. A bare std::stoul would wrap "-3" to ~4 billion and
 * read "14abc" as 14, and a cast to unsigned would wrap 4294967310 to
 * 14; here anything but digits, or a value above @p max, prints
 * "<flag> got '<value>', expected a number in [0, max]" and exits 2.
 */
inline unsigned
parse_unsigned(const std::string &flag, const std::string &value,
               unsigned long max)
{
    unsigned long n = 0;
    std::size_t used = 0;
    // value[0] of an empty string is '\0', so the digit test rejects it.
    if (std::isdigit(static_cast<unsigned char>(value[0]))) {
        try {
            n = std::stoul(value, &used);
        } catch (const std::exception &) {
            used = 0;
        }
    }
    if (used == 0 || used != value.size() || n > max) {
        std::cerr << flag << " got '" << value
                  << "', expected a number in [0, " << max << "]\n";
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

} // namespace bfree::tools

#endif // BFREE_TOOLS_ARG_PARSE_HH
