/**
 * @file
 * bfree_audit — whole-plan static analysis over the model zoo, without
 * executing anything. Where bfree_lint proves one kernel at a time,
 * the auditor lays every network out on the fabric and runs the
 * verify::PlanVerifier catalogue: region/interval disjointness,
 * producer/consumer dataflow and the capacity ledger.
 *
 *   bfree_audit --all
 *   bfree_audit --network vgg16 --precision 4
 *   bfree_audit --all --json findings.jsonl
 *
 * Exit status (shared with bfree_lint / bfree_cli): 0 when every audit
 * is clean, 1 when any error-severity finding fires, 2 on usage or
 * I/O errors.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dnn/model_zoo.hh"
#include "dnn/quantize.hh"
#include "verify/plan_verifier.hh"

#include "arg_parse.hh"

namespace {

using namespace bfree;

void
usage(std::ostream &os)
{
    os << "usage: bfree_audit [options]\n"
          "  --network NAME    vgg16 | inception | lstm | bert-base |\n"
          "                    bert-large | tiny (repeatable)\n"
          "  --all             audit every network in the model zoo\n"
          "  --precision P     8 | 4 | mixed | both   (default both)\n"
          "  --slices N        LLC slices to map onto (default 14)\n"
          "  --json FILE       append one JSON object per finding\n"
          "  --verbose         print warnings and notes too\n"
          "  --help            this text\n";
}

dnn::Network
select_network(const std::string &name)
{
    if (name == "vgg16")
        return dnn::make_vgg16();
    if (name == "inception")
        return dnn::make_inception_v3();
    if (name == "lstm")
        return dnn::make_lstm();
    if (name == "bert-base")
        return dnn::make_bert_base();
    if (name == "bert-large")
        return dnn::make_bert_large();
    if (name == "tiny")
        return dnn::make_tiny_cnn();
    std::cerr << "unknown network '" << name << "'\n";
    std::exit(2);
}

/** Minimal JSON string escaping (quotes, backslashes, control bytes). */
std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Print one audit's findings and stream them to the JSON sink. */
std::size_t
emit(const std::string &subject, unsigned bits,
     const verify::VerifyReport &report, bool verbose, std::ostream *json)
{
    std::cout << subject << ": " << report.errorCount() << " error(s), "
              << report.warningCount() << " warning(s)\n";
    for (const verify::Diagnostic &d : report.diagnostics()) {
        if (d.severity == verify::Severity::Error || verbose)
            std::cout << "  " << d.toString() << "\n";
        if (json) {
            *json << "{\"subject\":\"" << json_escape(subject)
                  << "\",\"precision\":" << bits << ",\"rule\":\""
                  << verify::rule_name(d.rule) << "\",\"severity\":\""
                  << verify::severity_name(d.severity)
                  << "\",\"location\":\"" << json_escape(d.location)
                  << "\",\"message\":\"" << json_escape(d.message)
                  << "\",\"fix\":\"" << json_escape(d.fixHint)
                  << "\"}\n";
        }
    }
    return report.errorCount();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    std::string precision = "both";
    std::string json_path;
    unsigned slices = 14;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--network")
            names.push_back(next());
        else if (arg == "--all")
            names = {"vgg16", "inception", "lstm",
                     "bert-base", "bert-large", "tiny"};
        else if (arg == "--precision")
            precision = next();
        else if (arg == "--slices")
            slices = tools::parse_unsigned(arg, next(), 1u << 10);
        else if (arg == "--json")
            json_path = next();
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--help") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (names.empty())
        names = {"vgg16", "inception", "lstm",
                 "bert-base", "bert-large", "tiny"};

    // Precisions to sweep; 0 = mixed (per-layer precisions accepted).
    std::vector<unsigned> sweeps;
    if (precision == "both")
        sweeps = {8, 4};
    else if (precision == "8")
        sweeps = {8};
    else if (precision == "4")
        sweeps = {4};
    else if (precision == "mixed")
        sweeps = {0};
    else {
        std::cerr << "unknown precision '" << precision << "'\n";
        return 2;
    }

    std::ofstream json_file;
    std::ostream *json = nullptr;
    if (!json_path.empty()) {
        json_file.open(json_path);
        if (!json_file) {
            std::cerr << "cannot open '" << json_path << "'\n";
            return 2;
        }
        json = &json_file;
    }

    map::MapperOptions mapper;
    mapper.slices = slices;
    const verify::PlanVerifier verifier{tech::CacheGeometry{}};

    std::size_t total_errors = 0;
    for (const std::string &name : names) {
        for (const unsigned bits : sweeps) {
            dnn::Network net = select_network(name);
            if (bits != 0)
                net.setUniformPrecision(bits);
            else
                dnn::apply_mixed_precision(net);

            const verify::VerifyReport report =
                verifier.verifyNetwork(net, bits, mapper);
            const std::string subject =
                net.name() + (bits == 0 ? " (mixed)"
                                        : " (" + std::to_string(bits)
                                              + "-bit)");
            total_errors += emit(subject, bits, report, verbose, json);
        }
    }

    if (json && !*json) {
        std::cerr << "failed writing '" << json_path << "'\n";
        return 2;
    }
    return total_errors > 0 ? 1 : 0;
}
