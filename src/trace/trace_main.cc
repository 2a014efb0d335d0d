/**
 * @file
 * sonic_trace — inspect and export .sonictrace event files.
 *
 *     sonic_trace run.sonictrace                       # summary
 *     sonic_trace run.sonictrace --export=chrome --out=run.json
 *     sonic_trace run.sonictrace --flame               # energy rollup
 *     sonic_trace run.sonictrace --summary
 *
 * The Chrome export loads in chrome://tracing or Perfetto: one process
 * per traced device with pipeline, layers, and power tracks. --flame
 * charges every joule between consecutive cumulative-energy stamps to
 * the layer/part that was active, reproducing the paper's per-layer
 * energy split from a recorded deployment instead of a bench run.
 * Corrupt or truncated inputs are rejected by the container checksums
 * and exit 2, like bad flags and unreadable files.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/cli.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;

int
usage()
{
    std::cerr
        << "usage: sonic_trace FILE.sonictrace [--export=chrome]\n"
           "                   [--flame] [--summary] [--out=PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input_path, out_path, export_format, value;
    bool flame = false;
    bool summary = false;

    for (const std::string arg :
         std::vector<std::string>(argv + 1, argv + argc)) {
        if (consumeFlag(arg, "--export", &value)) {
            if (value != "chrome") {
                std::cerr << "unknown export format '" << value
                          << "' (chrome)\n";
                return 2;
            }
            export_format = value;
        } else if (consumeFlag(arg, "--out", &value)) {
            out_path = value;
        } else if (arg == "--flame") {
            flame = true;
        } else if (arg == "--summary") {
            summary = true;
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

    std::vector<telemetry::TraceRow> rows;
    telemetry::SoniczInfo info;
    std::string error;
    if (!trace::readTrace(in, &rows, &info, &error)) {
        std::cerr << "sonic_trace: " << error << "\n";
        return 2;
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

    if (export_format == "chrome") {
        trace::exportChromeTrace(rows, out);
        return 0;
    }
    if (flame) {
        trace::writeFlameRollup(rows, out);
        return 0;
    }
    // Default (and explicit --summary): compact statistics.
    (void)summary;
    trace::writeTraceSummary(rows, out);
    return 0;
}
