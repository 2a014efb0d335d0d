/**
 * @file
 * The build-time label table: the teacher labels of each paper
 * model's zoo dataset, generated with the factor table
 * (tensor/eigen_table.hh) by src/dnn/paper_tables_gen.cc and served
 * by makeDataset in place of labelling every sample with a teacher
 * forward pass.
 *
 * A tabled label set is filed under labelKey: a digest of every bit
 * the labels depend on (the teacher's shape and weights, and the
 * drawn inputs). A dataset whose key is not tabled is labelled by the
 * teacher, as it always was.
 */

#ifndef SONIC_DNN_LABEL_TABLE_HH
#define SONIC_DNN_LABEL_TABLE_HH

#include <span>

#include "dnn/dataset.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/** One tabled label set. */
struct TabledLabels
{
    u64 key = 0;   ///< labelKey(teacher, data)
    u32 count = 0; ///< samples
    const u32 *labels = nullptr;
};

/** Every tabled label set (static storage; generated). */
std::span<const TabledLabels> tabledLabels();

/**
 * The key of data's labels: a wordDigest over the teacher's input
 * shape, class count and layers (kind, fused relu/pool, shape and
 * every weight bit) and over every sample's input bits. Labels are
 * not read.
 */
u64 labelKey(const NetworkSpec &teacher, const Dataset &data);

} // namespace sonic::dnn

#endif // SONIC_DNN_LABEL_TABLE_HH
