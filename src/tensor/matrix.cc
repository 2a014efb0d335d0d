#include "tensor/matrix.hh"

#include <algorithm>
#include <cmath>

namespace sonic::tensor
{

Matrix
Matrix::identity(u32 n)
{
    Matrix m(n, n);
    for (u32 i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
Matrix::gaussian(u32 rows, u32 cols, Rng &rng, f64 stddev)
{
    Matrix m(rows, cols);
    for (auto &v : m.data_)
        v = rng.gaussian(0.0, stddev);
    return m;
}

Matrix
Matrix::transpose() const
{
    // Copy in square tiles so both the reads and the writes stay
    // within a few cache lines.
    constexpr u32 kTile = 32;
    Matrix t(cols_, rows_);
    const f64 *src = data_.data();
    f64 *dst = t.data_.data();
    for (u32 r0 = 0; r0 < rows_; r0 += kTile) {
        const u32 r1 = std::min(rows_, r0 + kTile);
        for (u32 c0 = 0; c0 < cols_; c0 += kTile) {
            const u32 c1 = std::min(cols_, c0 + kTile);
            for (u32 r = r0; r < r1; ++r)
                for (u32 c = c0; c < c1; ++c)
                    dst[u64{c} * rows_ + r] = src[u64{r} * cols_ + c];
        }
    }
    return t;
}

Matrix
Matrix::matmul(const Matrix &other) const
{
    SONIC_ASSERT(cols_ == other.rows_, "matmul shape mismatch");
    const u32 n = other.cols_;
    Matrix out(rows_, n);
    // out(r, c) accumulates a(r, k) * b(k, c) in ascending k from 0.0,
    // skipping zero a(r, k); sweeping whole rows of b vectorizes that
    // without reordering any element's sum.
    for (u32 r = 0; r < rows_; ++r) {
        const f64 *arow = data_.data() + u64{r} * cols_;
        f64 *__restrict orow = out.data_.data() + u64{r} * n;
        for (u32 k = 0; k < cols_; ++k) {
            const f64 a = arow[k];
            if (a == 0.0)
                continue;
            const f64 *__restrict brow = other.data_.data() + u64{k} * n;
            for (u32 c = 0; c < n; ++c)
                orow[c] += a * brow[c];
        }
    }
    return out;
}

std::vector<f64>
Matrix::matvec(const std::vector<f64> &vec) const
{
    SONIC_ASSERT(vec.size() == cols_, "matvec shape mismatch");
    std::vector<f64> out(rows_, 0.0);
    for (u32 r = 0; r < rows_; ++r) {
        f64 acc = 0.0;
        const f64 *row = &data_[u64{r} * cols_];
        for (u32 c = 0; c < cols_; ++c)
            acc += row[c] * vec[c];
        out[r] = acc;
    }
    return out;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    SONIC_ASSERT(sameShape(other));
    Matrix out = *this;
    for (u64 i = 0; i < data_.size(); ++i)
        out.data_[i] += other.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    SONIC_ASSERT(sameShape(other));
    Matrix out = *this;
    for (u64 i = 0; i < data_.size(); ++i)
        out.data_[i] -= other.data_[i];
    return out;
}

Matrix
Matrix::scaled(f64 s) const
{
    Matrix out = *this;
    for (auto &v : out.data_)
        v *= s;
    return out;
}

f64
Matrix::frobeniusNorm() const
{
    f64 sum = 0.0;
    for (f64 v : data_)
        sum += v * v;
    return std::sqrt(sum);
}

u64
Matrix::nonZeroCount() const
{
    u64 count = 0;
    for (f64 v : data_)
        if (v != 0.0)
            ++count;
    return count;
}

f64
Matrix::relativeError(const Matrix &other) const
{
    SONIC_ASSERT(sameShape(other));
    const f64 denom = frobeniusNorm();
    if (denom == 0.0)
        return other.frobeniusNorm() == 0.0 ? 0.0 : 1.0;
    return (*this - other).frobeniusNorm() / denom;
}

Tensor3
Tensor3::gaussian(u32 d0, u32 d1, u32 d2, Rng &rng, f64 stddev)
{
    Tensor3 t(d0, d1, d2);
    for (auto &v : t.data_)
        v = rng.gaussian(0.0, stddev);
    return t;
}

f64
Tensor3::frobeniusNorm() const
{
    f64 sum = 0.0;
    for (f64 v : data_)
        sum += v * v;
    return std::sqrt(sum);
}

} // namespace sonic::tensor
