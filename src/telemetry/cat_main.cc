/**
 * @file
 * sonic_cat — decompress, subset, and re-emit .sonicz telemetry.
 *
 *     sonic_cat fleet.sonicz                        # CSV to stdout
 *     sonic_cat fleet.sonicz --format=json --out=fleet.json
 *     sonic_cat fleet.sonicz --env=solar --impl=SONIC
 *     sonic_cat fleet.sonicz --devices=100..199 --status=dnf
 *     sonic_cat sweep.sonicz --net=MNIST            # range = planIndex
 *     sonic_cat fleet.sonicz --info                 # validate + stats
 *     sonic_cat fleet.sonicz --summary              # FleetSummary JSON
 *
 * Re-emission goes through the exact sink classes the live tools use,
 * so an unfiltered cat is byte-identical to the CSV/JSON a direct run
 * writes. Any corruption — flipped payload bytes, a truncated tail, a
 * forged length — is a hard error with a block/column diagnostic, not
 * silently wrong output. Bad flags, unreadable files and input that
 * does not decode all exit 2.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/cat.hh"
#include "util/cli.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;

int
usage()
{
    std::cerr
        << "usage: sonic_cat FILE.sonicz [--format=csv|json]\n"
           "                 [--env=NAME] [--impl=NAME] [--net=NAME]\n"
           "                 [--pipeline=NAME] [--status=ok|dnf|fail]\n"
           "                 [--devices=A..B] [--out=PATH] [--info]\n"
           "                 [--summary]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::CatOptions options;
    std::string input_path, out_path, value;
    bool info_only = false;
    bool summary_only = false;

    for (const std::string arg :
         std::vector<std::string>(argv + 1, argv + argc)) {
        if (consumeFlag(arg, "--format", &value)) {
            if (value == "csv") {
                options.format = telemetry::CatOptions::Format::Csv;
            } else if (value == "json") {
                options.format = telemetry::CatOptions::Format::Json;
            } else {
                std::cerr << "unknown format '" << value
                          << "' (csv | json)\n";
                return 2;
            }
        } else if (consumeFlag(arg, "--env", &value)) {
            options.env = value;
        } else if (consumeFlag(arg, "--impl", &value)) {
            options.impl = value;
        } else if (consumeFlag(arg, "--net", &value)) {
            options.net = value;
        } else if (consumeFlag(arg, "--pipeline", &value)) {
            options.pipeline = value;
        } else if (consumeFlag(arg, "--status", &value)) {
            options.status = value;
        } else if (consumeFlag(arg, "--devices", &value)) {
            if (!telemetry::parseIndexRange(value, &options.rangeLo,
                                            &options.rangeHi)) {
                std::cerr << "--devices expects A..B or a single "
                             "index (got '"
                          << value << "')\n";
                return 2;
            }
            options.hasRange = true;
        } else if (consumeFlag(arg, "--out", &value)) {
            out_path = value;
        } else if (arg == "--info") {
            info_only = true;
        } else if (arg == "--summary") {
            summary_only = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else if (input_path.empty()) {
            input_path = arg;
        } else {
            return usage();
        }
    }
    if (input_path.empty())
        return usage();

    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot read " << input_path << "\n";
        return 2;
    }

    std::string error;
    if (info_only) {
        if (!telemetry::soniczInfo(in, std::cout, &error)) {
            std::cerr << error << "\n";
            return 2;
        }
        return 0;
    }

    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path, std::ios::binary);
        if (!out_file) {
            std::cerr << "cannot write " << out_path << "\n";
            return 2;
        }
    }
    std::ostream &out = out_path.empty() ? std::cout : out_file;

    if (summary_only) {
        if (!telemetry::soniczSummary(in, out, options, &error)) {
            std::cerr << error << "\n";
            return 2;
        }
        return 0;
    }

    if (!telemetry::catSonicz(in, out, options, &error)) {
        std::cerr << error << "\n";
        return 2;
    }
    return 0;
}
