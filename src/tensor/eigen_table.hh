/**
 * @file
 * The build-time factor table: the eigen-solutions of the paper
 * teachers' Gram matrices, generated while the library is built (see
 * src/dnn/paper_tables_gen.cc) and served by tensor::truncatedSvd.
 *
 * The generator is linked from the same object files as the library
 * and writes each value as an exact hex-float literal, so a tabled
 * solution has the bits that solving it in this build gives. An entry
 * is used only when its key matches the matrix in hand; anything else
 * (another seed, another rank, another model) is solved.
 */

#ifndef SONIC_TENSOR_EIGEN_TABLE_HH
#define SONIC_TENSOR_EIGEN_TABLE_HH

#include <span>

#include "util/types.hh"

namespace sonic::tensor
{

/**
 * The leading eigenpairs of one matrix's Gram matrix, as
 * symmetricEigen(gramMatrix(a, gramRows)) orders them.
 */
struct TabledEigen
{
    u64 digest = 0; ///< wordDigest of a's elements
    u32 rows = 0;   ///< a's shape
    u32 cols = 0;
    bool gramRows = true; ///< A A^T (else A^T A)
    u32 dim = 0;          ///< the Gram matrix's order
    u32 rank = 0;         ///< eigenpairs kept
    const f64 *values = nullptr;  ///< rank values, descending
    const f64 *vectors = nullptr; ///< column i at vectors + i * dim
};

/** Every tabled solution (static storage; generated). */
std::span<const TabledEigen> tabledEigens();

} // namespace sonic::tensor

#endif // SONIC_TENSOR_EIGEN_TABLE_HH
