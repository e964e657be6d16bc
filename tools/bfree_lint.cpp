/**
 * @file
 * bfree_lint — statically verify compiled PIM programs without
 * executing them. Compiles every layer of the requested networks and
 * runs the KernelVerifier rule catalogue over the result.
 *
 *   bfree_lint --all
 *   bfree_lint --network vgg16 --network bert-base
 *   bfree_lint --network inception --mode conv --precision 4
 *
 * Exit status: 0 when every kernel is clean, 1 when any
 * error-severity diagnostic fires, 2 on usage errors.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/bfree.hh"
#include "dnn/quantize.hh"
#include "verify/kernel_verifier.hh"

#include "arg_parse.hh"

namespace {

using namespace bfree;

void
usage(std::ostream &os)
{
    os << "usage: bfree_lint [options]\n"
          "  --network NAME    vgg16 | inception | lstm | bert-base |\n"
          "                    bert-large | tiny (repeatable)\n"
          "  --all             lint every network in the model zoo\n"
          "  --slices N        LLC slices to map onto (default 14)\n"
          "  --mode MODE       auto | conv | matmul (default auto)\n"
          "  --precision P     8 | 4 | mixed        (default 8)\n"
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

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    std::string mode = "auto";
    std::string precision = "8";
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
        else if (arg == "--slices")
            slices = tools::parse_unsigned(arg, next(), 1u << 10);
        else if (arg == "--mode")
            mode = next();
        else if (arg == "--precision")
            precision = next();
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
        names.push_back("vgg16");

    map::ExecConfig cfg;
    cfg.mapper.slices = slices;
    if (mode == "conv")
        cfg.mapper.forcedMode = map::ExecMode::ConvMode;
    else if (mode == "matmul")
        cfg.mapper.forcedMode = map::ExecMode::MatmulMode;
    else if (mode != "auto") {
        std::cerr << "unknown mode '" << mode << "'\n";
        return 2;
    }

    const core::BFreeAccelerator acc;
    std::size_t total_errors = 0;

    for (const std::string &name : names) {
        dnn::Network net = select_network(name);
        if (precision == "4")
            net.setUniformPrecision(4);
        else if (precision == "mixed")
            dnn::apply_mixed_precision(net);
        else if (precision != "8") {
            std::cerr << "unknown precision '" << precision << "'\n";
            return 2;
        }

        const verify::VerifyReport report = acc.lint(net, cfg);
        total_errors += report.errorCount();

        std::cout << net.name() << ": " << report.errorCount()
                  << " error(s), " << report.warningCount()
                  << " warning(s) across " << net.layers().size()
                  << " layers\n";
        for (const verify::Diagnostic &d : report.diagnostics()) {
            if (d.severity == verify::Severity::Error || verbose)
                std::cout << "  " << d.toString() << "\n";
        }
    }

    return total_errors > 0 ? 1 : 0;
}
