/**
 * @file
 * sonic_paper_tables — write the build-time factor and label tables
 * (tensor/eigen_table.hh, dnn/label_table.hh) as one C++ source:
 *
 *     sonic_paper_tables OUT.cc
 *
 * The build runs it while making the library: it is linked from the
 * library's own object files plus the empty tables defined below, so
 * every lookup in it misses and every value it writes is what the
 * library computes without a table. For each paper model at its
 * registered seed it tables
 *  - each Gram eigen-solution tensor::truncatedSvd solves when the
 *    teacher is compressed at the Table 2 knobs and at every rank
 *    scale of GENESIS' grid, cut to the largest rank asked of it (a
 *    larger rank is solved at run time);
 *  - the zoo dataset's teacher labels, under dnn::labelKey.
 * Values are written as hex-float literals ("%a"), which give back
 * every finite double bit for bit. The output is written to a
 * temporary file and renamed into place, so a failed run leaves no
 * partial table behind.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/label_table.hh"
#include "dnn/networks.hh"
#include "dnn/zoo.hh"
#include "genesis/genesis.hh"
#include "tensor/decompose.hh"
#include "tensor/eigen_table.hh"

namespace sonic::tensor
{
std::span<const TabledEigen>
tabledEigens()
{
    return {};
}
} // namespace sonic::tensor

namespace sonic::dnn
{
std::span<const TabledLabels>
tabledLabels()
{
    return {};
}
} // namespace sonic::dnn

namespace
{

using namespace sonic;

std::string
hexFloat(f64 v)
{
    if (!std::isfinite(v)) {
        std::cerr << "sonic_paper_tables: non-finite value " << v
                  << "\n";
        std::exit(1);
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
hex64(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** `const TYPE NAME[] = {...};`, four values a line. */
template <typename T, typename Format>
void
writeArray(std::ostream &out, const char *type, const std::string &name,
           const std::vector<T> &values, Format format)
{
    out << "const " << type << " " << name << "[] = {";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i % 4 == 0 ? "\n    " : " ") << format(values[i]) << ",";
    out << "\n};\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: sonic_paper_tables OUT.cc\n";
        return 2;
    }
    const std::string path = argv[1];

    std::ostringstream arrays, eigens, labels;
    u32 n_labels = 0;
    for (const dnn::NetId id :
         {dnn::NetId::Mnist, dnn::NetId::Har, dnn::NetId::Okg}) {
        const std::string net = dnn::netName(id);
        // The zoo's teacher: buildTeacher at its default seed.
        const dnn::NetworkSpec teacher = dnn::buildTeacher(id);

        // The factorizations the zoo (Table 2 knobs) and GENESIS' grid
        // ask for: compressing at every rank scale GENESIS sweeps
        // leaves each solve in the memo, with its largest rank.
        for (const f64 scale : genesis::kDenseRankScales)
            dnn::compressTeacher(id, teacher, {.fcRankScale = scale});

        const dnn::ModelMeta *meta = dnn::ModelZoo::instance().meta(net);
        const dnn::Dataset data = dnn::makeDataset(
            teacher, meta->datasetSamples, meta->datasetSeed);
        std::vector<u32> sample_labels;
        for (const auto &sample : data)
            sample_labels.push_back(sample.label);
        const std::string stem = "kLabels" + std::to_string(n_labels);
        writeArray(arrays, "u32", stem, sample_labels,
                   [](u32 v) { return std::to_string(v) + "u"; });
        labels << "    {" << hex64(dnn::labelKey(teacher, data)) << ", "
               << data.size() << "u, " << stem << "}, // " << net
               << "\n";
        ++n_labels;
    }

    const auto solved = tensor::memoizedEigens();
    for (std::size_t e = 0; e < solved.size(); ++e) {
        const tensor::MemoizedEigen &eig = solved[e];
        const std::string stem = "kEigen" + std::to_string(e);
        writeArray(arrays, "f64", stem + "Values", eig.values, hexFloat);
        writeArray(arrays, "f64", stem + "Vectors", eig.vectors,
                   hexFloat);
        eigens << "    {" << hex64(eig.digest) << ", " << eig.rows
               << "u, " << eig.cols << "u, "
               << (eig.gramRows ? "true" : "false") << ", " << eig.dim
               << "u, " << eig.rank << "u, " << stem << "Values, "
               << stem << "Vectors},\n";
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        out << "// Generated by sonic_paper_tables while building the "
               "library (see\n"
               "// src/dnn/paper_tables_gen.cc); do not edit. The "
               "paper teachers' Gram\n"
               "// eigen-solutions and zoo dataset labels, every "
               "value an exact\n"
               "// hex-float literal.\n\n"
               "#include \"dnn/label_table.hh\"\n"
               "#include \"tensor/eigen_table.hh\"\n\n"
               "namespace\n{\n\n"
               "using sonic::f64;\nusing sonic::u32;\n\n"
            << arrays.str()
            << "const sonic::tensor::TabledEigen kEigens[] = {\n"
            << eigens.str() << "};\n\n"
            << "const sonic::dnn::TabledLabels kLabels[] = {\n"
            << labels.str() << "};\n\n"
            << "} // namespace\n\n"
               "std::span<const sonic::tensor::TabledEigen>\n"
               "sonic::tensor::tabledEigens()\n{\n    return kEigens;\n}"
               "\n\n"
               "std::span<const sonic::dnn::TabledLabels>\n"
               "sonic::dnn::tabledLabels()\n{\n    return kLabels;\n}\n";
        if (!out.flush()) {
            std::cerr << "sonic_paper_tables: cannot write " << tmp
                      << "\n";
            return 1;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "sonic_paper_tables: cannot rename " << tmp
                  << " to " << path << "\n";
        return 1;
    }
    std::cout << "sonic_paper_tables: " << solved.size()
              << " eigen-solutions and " << n_labels
              << " label sets tabled in " << path << "\n";
    return 0;
}
