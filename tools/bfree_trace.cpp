/**
 * @file
 * bfree_trace — dump the cycle-by-cycle BCE pipeline for given
 * operands (the Fig. 6 / Fig. 7 walk-throughs, programmatically).
 *
 *   bfree_trace conv 4,6,5 3,3,7
 *   bfree_trace matmul 10,-3 8
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "bce/pipeline_trace.hh"
#include "verify/kernel_verifier.hh"

namespace {

/**
 * Parse one decimal integer token strictly: the whole token, non-empty,
 * inside int's range. A malformed token is fatal with a message naming
 * it (exit 2), never an uncaught exception.
 */
int
parse_int(const std::string &token, const char *what)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (token.empty() || end != token.c_str() + token.size()
        || std::isspace(static_cast<unsigned char>(token[0]))
        || errno == ERANGE || v < std::numeric_limits<int>::min()
        || v > std::numeric_limits<int>::max()) {
        std::cerr << "bfree_trace: bad " << what << " '" << token
                  << "': expected a decimal integer in int range\n";
        std::exit(2);
    }
    return static_cast<int>(v);
}

/** Split @p text on commas (empty fields included) and parse each. */
std::vector<int>
parse_list(const std::string &text)
{
    std::vector<int> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = text.find(',', start);
        out.push_back(parse_int(text.substr(start, comma - start),
                                "operand"));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

/**
 * Vet an operand list through the verifier instead of trusting it:
 * out-of-range operands would index past the 49-entry LUT. Prints the
 * diagnostics; returns false when any error fired.
 */
bool
operands_ok(const std::vector<int> &values, unsigned bits,
            bool is_signed, const std::string &location)
{
    bfree::verify::VerifyReport report;
    bfree::verify::check_operand_range(values, bits, is_signed, report,
                                       location);
    for (const bfree::verify::Diagnostic &d : report.diagnostics())
        std::cerr << d.toString() << "\n";
    return report.ok();
}

void
usage()
{
    std::cerr << "usage:\n"
                 "  bfree_trace conv W1,W2,... X1,X2,...\n"
                 "      conv-mode dot product of 4-bit operand lists\n"
                 "  bfree_trace matmul A1,A2,... WIDTH\n"
                 "      matmul-mode broadcast of 8-bit A operands\n"
                 "      against WIDTH-wide rows of ones (WIDTH <= 8)\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bfree::bce;

    if (argc < 2)
        usage();
    const std::string mode = argv[1];
    const bfree::lut::MultLut lut;

    if (mode == "conv") {
        if (argc != 4)
            usage();
        const std::vector<int> w = parse_list(argv[2]);
        const std::vector<int> x = parse_list(argv[3]);
        if (w.size() != x.size()) {
            std::cerr << "operand lists must have equal length\n";
            return 2;
        }
        if (!operands_ok(w, 4, /*is_signed=*/false, "weights")
            || !operands_ok(x, 4, /*is_signed=*/false, "inputs"))
            return 1;
        std::vector<unsigned> wu(w.begin(), w.end());
        std::vector<unsigned> xu(x.begin(), x.end());
        const PipelineTrace trace = trace_conv_dot(wu, xu, lut);
        std::printf("%s", trace.toString().c_str());
        return 0;
    }

    if (mode == "matmul") {
        if (argc != 4)
            usage();
        const std::vector<int> a = parse_list(argv[2]);
        const int width = parse_int(argv[3], "WIDTH");
        if (!operands_ok(a, 8, /*is_signed=*/true, "a-operands"))
            return 1;
        if (width <= 0 || unsigned(width) > bce_vector_width) {
            std::cerr << "WIDTH must be in [1, " << bce_vector_width
                      << "], the register-file width\n";
            return 2;
        }
        std::vector<std::int32_t> a_ops(a.begin(), a.end());
        std::vector<std::vector<std::int8_t>> rows(
            a_ops.size(),
            std::vector<std::int8_t>(static_cast<std::size_t>(width),
                                     1));
        const PipelineTrace trace =
            trace_matmul_broadcast(a_ops, rows, lut);
        std::printf("%s", trace.toString().c_str());
        return 0;
    }

    usage();
    return 2;
}
