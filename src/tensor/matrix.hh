/**
 * @file
 * Host-side dense matrix (row-major, f64) used by GENESIS for
 * compression (SVD separation, pruning) and by the test suite as the
 * golden model for device kernels. This is deliberately a small,
 * dependency-free linear-algebra kit — the paper's training-side
 * tooling, reimplemented.
 */

#ifndef SONIC_TENSOR_MATRIX_HH
#define SONIC_TENSOR_MATRIX_HH

#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace sonic::tensor
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    Matrix(u32 rows, u32 cols, f64 fill = 0.0)
        : rows_(rows), cols_(cols), data_(u64{rows} * cols, fill)
    {
    }

    static Matrix identity(u32 n);

    /** Matrix with i.i.d. gaussian entries (deterministic from rng). */
    static Matrix gaussian(u32 rows, u32 cols, Rng &rng, f64 stddev = 1.0);

    u32 rows() const { return rows_; }
    u32 cols() const { return cols_; }
    u64 size() const { return data_.size(); }

    f64 &
    at(u32 r, u32 c)
    {
        SONIC_ASSERT(r < rows_ && c < cols_);
        return data_[u64{r} * cols_ + c];
    }

    f64
    at(u32 r, u32 c) const
    {
        SONIC_ASSERT(r < rows_ && c < cols_);
        return data_[u64{r} * cols_ + c];
    }

    const std::vector<f64> &data() const { return data_; }
    std::vector<f64> &data() { return data_; }

    Matrix transpose() const;

    /**
     * this * other. Each output element sums its products in ascending
     * k from 0.0, skipping zero entries of this; that order is pinned
     * (see tensor/decompose.hh).
     */
    Matrix matmul(const Matrix &other) const;

    /** this * vec (vec.size() == cols). */
    std::vector<f64> matvec(const std::vector<f64> &vec) const;

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix scaled(f64 s) const;

    f64 frobeniusNorm() const;

    /** Count of entries with |x| > 0. */
    u64 nonZeroCount() const;

    /** Relative reconstruction error ||this - other||_F / ||this||_F. */
    f64 relativeError(const Matrix &other) const;

    bool
    sameShape(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }

  private:
    u32 rows_ = 0;
    u32 cols_ = 0;
    std::vector<f64> data_;
};

/** Dense 3-D tensor (used for conv filter banks: filters x kh x kw). */
class Tensor3
{
  public:
    Tensor3() = default;

    Tensor3(u32 d0, u32 d1, u32 d2, f64 fill = 0.0)
        : d0_(d0), d1_(d1), d2_(d2), data_(u64{d0} * d1 * d2, fill)
    {
    }

    static Tensor3 gaussian(u32 d0, u32 d1, u32 d2, Rng &rng,
                            f64 stddev = 1.0);

    u32 dim0() const { return d0_; }
    u32 dim1() const { return d1_; }
    u32 dim2() const { return d2_; }
    u64 size() const { return data_.size(); }

    f64 &
    at(u32 i, u32 j, u32 k)
    {
        SONIC_ASSERT(i < d0_ && j < d1_ && k < d2_);
        return data_[(u64{i} * d1_ + j) * d2_ + k];
    }

    f64
    at(u32 i, u32 j, u32 k) const
    {
        SONIC_ASSERT(i < d0_ && j < d1_ && k < d2_);
        return data_[(u64{i} * d1_ + j) * d2_ + k];
    }

    const std::vector<f64> &data() const { return data_; }
    std::vector<f64> &data() { return data_; }

    f64 frobeniusNorm() const;

  private:
    u32 d0_ = 0;
    u32 d1_ = 0;
    u32 d2_ = 0;
    std::vector<f64> data_;
};

} // namespace sonic::tensor

#endif // SONIC_TENSOR_MATRIX_HH
