/**
 * @file
 * Low-rank decompositions used by GENESIS' "separation" compression:
 *  - truncated SVD for fully-connected layers (m x n -> m x k, k x n),
 *  - rank-1 CP/Tucker (HOOI-style alternating power iteration) for
 *    convolutional filter banks (m x kh x kw -> m + kh + kw "3x 1-D"
 *    filters, the paper's Table 2 "HOOI 3x1D Conv" rows).
 */

#ifndef SONIC_TENSOR_DECOMPOSE_HH
#define SONIC_TENSOR_DECOMPOSE_HH

#include <vector>

#include "tensor/matrix.hh"
#include "util/types.hh"

namespace sonic::tensor
{

/** Result of a symmetric eigendecomposition, eigenvalues descending. */
struct EigenResult
{
    std::vector<f64> values;
    Matrix vectors; ///< column i is the eigenvector for values[i]
};

/** symmetricEigen's default sweep limit and convergence tolerance;
 * truncatedSvd solves with these too. */
inline constexpr u32 kJacobiMaxSweeps = 64;
inline constexpr f64 kJacobiTol = 1e-12;

/**
 * Cyclic Jacobi eigendecomposition of a symmetric matrix. O(n^3) per
 * sweep; intended for the small Gram matrices (n <= a few hundred)
 * that arise when decomposing our layers.
 *
 * Every compressed paper network is derived from these bits, so the
 * per-element arithmetic is part of the contract: the rotation order
 * (p ascending, then q), each element's expression (c*x - s*y,
 * s*x + c*y), the column pass before the row pass, and the skip and
 * convergence tests. The Pinned tests in tests/test_tensor.cc and
 * ModelZoo.PaperArtifactsArePinned in tests/test_zoo.cc hold those
 * bits; loops may be restructured for speed, never reordered or
 * reassociated.
 */
EigenResult symmetricEigen(const Matrix &sym,
                           u32 max_sweeps = kJacobiMaxSweeps,
                           f64 tol = kJacobiTol);

/** Truncated SVD A ~= U diag(S) V^T with k columns. */
struct SvdResult
{
    Matrix u;              ///< m x k
    std::vector<f64> s;    ///< k singular values, descending
    Matrix v;              ///< n x k

    /** Reconstruct the rank-k approximation. */
    Matrix reconstruct() const;

    /** Parameter count of the factored form (m*k + k*n). */
    u64 factoredParams() const;
};

/**
 * The Gram matrix truncatedSvd decomposes: A A^T when rows, else
 * A^T A. Bit for bit what a.matmul(a.transpose()) and
 * a.transpose().matmul(a) compute.
 */
Matrix gramMatrix(const Matrix &a, bool rows);

/**
 * Rank-k SVD computed via eigendecomposition of the smaller Gram
 * matrix (numerically adequate for compression use; the rows side
 * when a.rows() <= a.cols()). Each projected factor element
 * (A^T u / sigma or A v / sigma) sums in ascending index order from
 * 0.0, pinned like symmetricEigen.
 *
 * Factor i reads only eigenpair i, so the result for rank k is an
 * exact prefix of the result for any larger rank, and the
 * eigen-solution is looked up rather than solved whenever it is
 * known:
 *  - the build-time factor table (tensor/eigen_table.hh) serves the
 *    paper teachers' layers with no copy;
 *  - otherwise a process-wide memo keyed by (wordDigest of A's bits,
 *    A's shape, Gram side) holds each full solution once, within
 *    kEigenMemoBytes (the oldest solutions are dropped first);
 *  - concurrent misses on one key solve it once.
 * Either way the bits are those of solving symmetricEigen(gram).
 */
SvdResult truncatedSvd(const Matrix &a, u32 k);

/** The eigen memo's budget: the bytes of solutions it holds at most.
 * The seven paper-layer solutions of one teacher seed take ~1.5 MB. */
inline constexpr u64 kEigenMemoBytes = u64{4} << 20;

/** Where truncatedSvd's eigen-solutions came from, since the start. */
struct EigenSourceCounts
{
    u64 tableHits = 0; ///< served from the build-time table
    u64 memoHits = 0;  ///< served from the memo (or a concurrent solve)
    u64 solves = 0;    ///< symmetricEigen runs
};

/** A snapshot of the process-wide counts. */
EigenSourceCounts eigenSourceCounts();

/** One solution the memo holds, cut to the largest rank asked of it
 * (the layout of tensor::TabledEigen, owning its values). */
struct MemoizedEigen
{
    u64 digest = 0;
    u32 rows = 0;
    u32 cols = 0;
    bool gramRows = true;
    u32 dim = 0;
    u32 rank = 0;
    std::vector<f64> values;
    std::vector<f64> vectors; ///< column i at vectors[i * dim]
};

/**
 * Every solution the memo holds, in key order. The table generator
 * runs the library's own callers and tables what they asked for.
 */
std::vector<MemoizedEigen> memoizedEigens();

/** Rank-1 CP decomposition T ~= lambda * a (x) b (x) c. */
struct Cp1Result
{
    f64 lambda = 0.0;
    std::vector<f64> a; ///< dim0 (output channels)
    std::vector<f64> b; ///< dim1 (filter rows)
    std::vector<f64> c; ///< dim2 (filter cols)

    /** Reconstruct the rank-1 tensor. */
    Tensor3 reconstruct(u32 d0, u32 d1, u32 d2) const;

    /** Parameter count of the factored form (d0 + d1 + d2 + 1). */
    u64 factoredParams() const;
};

/**
 * Alternating power iteration (the rank-(1,1,1) special case of the
 * higher-order orthogonal iteration the paper cites) for a 3-D tensor.
 */
Cp1Result cpRank1(const Tensor3 &t, u32 max_iters = 100, f64 tol = 1e-10);

/** Relative error of a rank-1 approximation. */
f64 cpRank1Error(const Tensor3 &t, const Cp1Result &cp);

} // namespace sonic::tensor

#endif // SONIC_TENSOR_DECOMPOSE_HH
