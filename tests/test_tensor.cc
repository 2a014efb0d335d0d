/**
 * @file
 * Unit tests for the host tensor kit: matrices, decompositions
 * (symmetric eigen, truncated SVD, rank-1 CP), pruning, sparse
 * formats, the reference NN primitives, and bit pins of the
 * decompositions and the conv loop.
 */

#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/decompose.hh"
#include "tensor/matrix.hh"
#include "tensor/nnref.hh"
#include "tensor/sparse.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace sonic::tensor
{
namespace
{

TEST(Matrix, IdentityMatmul)
{
    Rng rng(1);
    Matrix a = Matrix::gaussian(4, 6, rng);
    Matrix out = Matrix::identity(4).matmul(a);
    EXPECT_LT(a.relativeError(out), 1e-12);
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(2);
    Matrix a = Matrix::gaussian(5, 3, rng);
    EXPECT_LT(a.relativeError(a.transpose().transpose()), 1e-15);
}

TEST(Matrix, MatvecMatchesMatmul)
{
    Rng rng(3);
    Matrix a = Matrix::gaussian(4, 5, rng);
    std::vector<f64> x = {1, -2, 3, 0.5, -0.25};
    Matrix xm(5, 1);
    for (u32 i = 0; i < 5; ++i)
        xm.at(i, 0) = x[i];
    const auto y = a.matvec(x);
    const Matrix ym = a.matmul(xm);
    for (u32 i = 0; i < 4; ++i)
        EXPECT_NEAR(y[i], ym.at(i, 0), 1e-12);
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix a(2, 2);
    a.at(0, 0) = 3;
    a.at(1, 1) = 4;
    EXPECT_NEAR(a.frobeniusNorm(), 5.0, 1e-12);
}

TEST(Matrix, NonZeroCount)
{
    Matrix a(2, 3);
    a.at(0, 1) = 2.0;
    a.at(1, 2) = -1.0;
    EXPECT_EQ(a.nonZeroCount(), 2u);
}

TEST(Eigen, DiagonalMatrix)
{
    Matrix d(3, 3);
    d.at(0, 0) = 5;
    d.at(1, 1) = 2;
    d.at(2, 2) = 9;
    const auto eig = symmetricEigen(d);
    EXPECT_NEAR(eig.values[0], 9, 1e-9);
    EXPECT_NEAR(eig.values[1], 5, 1e-9);
    EXPECT_NEAR(eig.values[2], 2, 1e-9);
}

TEST(Eigen, ReconstructsSymmetricMatrix)
{
    Rng rng(4);
    Matrix a = Matrix::gaussian(6, 6, rng);
    Matrix sym = a + a.transpose();
    const auto eig = symmetricEigen(sym);
    // Reconstruct V diag(L) V^T.
    Matrix rec(6, 6);
    for (u32 r = 0; r < 6; ++r)
        for (u32 c = 0; c < 6; ++c) {
            f64 acc = 0;
            for (u32 k = 0; k < 6; ++k)
                acc += eig.vectors.at(r, k) * eig.values[k]
                     * eig.vectors.at(c, k);
            rec.at(r, c) = acc;
        }
    EXPECT_LT(sym.relativeError(rec), 1e-8);
}

TEST(Svd, FullRankReconstructs)
{
    Rng rng(5);
    Matrix a = Matrix::gaussian(6, 9, rng);
    const auto svd = truncatedSvd(a, 6);
    EXPECT_LT(a.relativeError(svd.reconstruct()), 1e-8);
}

TEST(Svd, SingularValuesDescending)
{
    Rng rng(6);
    Matrix a = Matrix::gaussian(8, 5, rng);
    const auto svd = truncatedSvd(a, 5);
    for (u32 i = 1; i < svd.s.size(); ++i)
        EXPECT_GE(svd.s[i - 1], svd.s[i] - 1e-12);
}

TEST(Svd, RankOneMatrixExact)
{
    // a = u v^T has rank 1; rank-1 SVD must be near-exact.
    Matrix a(4, 3);
    const f64 u[] = {1, -2, 0.5, 3};
    const f64 v[] = {2, 0.25, -1};
    for (u32 r = 0; r < 4; ++r)
        for (u32 c = 0; c < 3; ++c)
            a.at(r, c) = u[r] * v[c];
    const auto svd = truncatedSvd(a, 1);
    EXPECT_LT(a.relativeError(svd.reconstruct()), 1e-10);
}

TEST(Svd, TruncationErrorDecreasesWithRank)
{
    Rng rng(7);
    Matrix a = Matrix::gaussian(10, 12, rng);
    f64 prev = 1e9;
    for (u32 k : {1u, 3u, 6u, 10u}) {
        const f64 err = a.relativeError(truncatedSvd(a, k).reconstruct());
        EXPECT_LE(err, prev + 1e-12);
        prev = err;
    }
}

TEST(Svd, FactoredParams)
{
    Rng rng(8);
    Matrix a = Matrix::gaussian(10, 20, rng);
    const auto svd = truncatedSvd(a, 4);
    EXPECT_EQ(svd.factoredParams(), 10u * 4 + 20u * 4);
}

TEST(Cp1, RankOneTensorExact)
{
    std::vector<f64> a = {1, 2, -1};
    std::vector<f64> b = {0.5, -0.25};
    std::vector<f64> c = {3, 1, 2, -2};
    Tensor3 t(3, 2, 4);
    for (u32 i = 0; i < 3; ++i)
        for (u32 j = 0; j < 2; ++j)
            for (u32 k = 0; k < 4; ++k)
                t.at(i, j, k) = a[i] * b[j] * c[k];
    const auto cp = cpRank1(t);
    EXPECT_LT(cpRank1Error(t, cp), 1e-9);
}

TEST(Cp1, CapturesDominantComponent)
{
    Rng rng(9);
    Tensor3 t(8, 5, 5);
    // Dominant rank-1 term plus small noise.
    std::vector<f64> a(8), b(5), c(5);
    for (auto &x : a)
        x = rng.gaussian();
    for (auto &x : b)
        x = rng.gaussian();
    for (auto &x : c)
        x = rng.gaussian();
    for (u32 i = 0; i < 8; ++i)
        for (u32 j = 0; j < 5; ++j)
            for (u32 k = 0; k < 5; ++k)
                t.at(i, j, k) =
                    a[i] * b[j] * c[k] + 0.01 * rng.gaussian();
    const auto cp = cpRank1(t);
    EXPECT_LT(cpRank1Error(t, cp), 0.15);
    EXPECT_EQ(cp.factoredParams(), 8u + 5 + 5 + 1);
}

TEST(Prune, ThresholdZeroesSmall)
{
    Matrix a(1, 4);
    a.at(0, 0) = 0.1;
    a.at(0, 1) = -0.5;
    a.at(0, 2) = 0.01;
    a.at(0, 3) = 2.0;
    EXPECT_EQ(pruneThreshold(a, 0.2), 2u);
    EXPECT_EQ(a.at(0, 0), 0.0);
    EXPECT_EQ(a.at(0, 1), -0.5);
}

TEST(Prune, FractionKeepsExactCount)
{
    Rng rng(10);
    Matrix a = Matrix::gaussian(20, 20, rng);
    EXPECT_EQ(pruneToFraction(a, 0.25), 100u);
    EXPECT_EQ(a.nonZeroCount(), 100u);
}

TEST(Prune, FractionKeepsLargestMagnitudes)
{
    Matrix a(1, 5);
    a.at(0, 0) = 5;
    a.at(0, 1) = -4;
    a.at(0, 2) = 3;
    a.at(0, 3) = 2;
    a.at(0, 4) = 1;
    pruneToFraction(a, 0.4);
    EXPECT_EQ(a.at(0, 0), 5.0);
    EXPECT_EQ(a.at(0, 1), -4.0);
    EXPECT_EQ(a.at(0, 2), 0.0);
}

TEST(Prune, ZeroFractionZeroesAll)
{
    Rng rng(11);
    Matrix a = Matrix::gaussian(5, 5, rng);
    EXPECT_EQ(pruneToFraction(a, 0.0), 0u);
    EXPECT_EQ(a.nonZeroCount(), 0u);
}

TEST(Sparse, CscRoundTrip)
{
    Rng rng(12);
    Matrix a = Matrix::gaussian(7, 9, rng);
    pruneToFraction(a, 0.3);
    const auto csc = CscMatrix::fromDense(a);
    EXPECT_EQ(csc.nnz(), a.nonZeroCount());
    EXPECT_LT(a.relativeError(csc.toDense()), 1e-15);
}

TEST(Sparse, CsrRoundTrip)
{
    Rng rng(13);
    Matrix a = Matrix::gaussian(7, 9, rng);
    pruneToFraction(a, 0.3);
    const auto csr = CsrMatrix::fromDense(a);
    EXPECT_LT(a.relativeError(csr.toDense()), 1e-15);
}

TEST(Sparse, MatvecAgreesWithDense)
{
    Rng rng(14);
    Matrix a = Matrix::gaussian(6, 8, rng);
    pruneToFraction(a, 0.4);
    std::vector<f64> x(8);
    for (auto &v : x)
        v = rng.gaussian();
    const auto dense = a.matvec(x);
    const auto via_csc = CscMatrix::fromDense(a).matvec(x);
    const auto via_csr = CsrMatrix::fromDense(a).matvec(x);
    for (u32 i = 0; i < 6; ++i) {
        EXPECT_NEAR(via_csc[i], dense[i], 1e-12);
        EXPECT_NEAR(via_csr[i], dense[i], 1e-12);
    }
}

TEST(NnRef, Conv2dHandComputed)
{
    FeatureMap in(1, 3, 3);
    for (u32 i = 0; i < 9; ++i)
        in.data[i] = i + 1; // 1..9
    FilterBank f(1, 1, 2, 2);
    f.at(0, 0, 0, 0) = 1;
    f.at(0, 0, 0, 1) = 0;
    f.at(0, 0, 1, 0) = 0;
    f.at(0, 0, 1, 1) = 1;
    const auto out = conv2dValid(in, f);
    EXPECT_EQ(out.height, 2u);
    EXPECT_EQ(out.width, 2u);
    EXPECT_NEAR(out.at(0, 0, 0), 1 + 5, 1e-12);
    EXPECT_NEAR(out.at(0, 1, 1), 5 + 9, 1e-12);
}

TEST(NnRef, FactoredEqualsRankOneConv)
{
    // A rank-1 separable 2-D conv equals col-conv then row-conv.
    Rng rng(15);
    FeatureMap in(1, 6, 7);
    for (auto &v : in.data)
        v = rng.gaussian();
    std::vector<f64> col = {0.5, -1.0, 0.25};
    std::vector<f64> row = {2.0, 1.0};
    FilterBank f(1, 1, 3, 2);
    for (u32 y = 0; y < 3; ++y)
        for (u32 x = 0; x < 2; ++x)
            f.at(0, 0, y, x) = col[y] * row[x];
    const auto direct = conv2dValid(in, f);
    const auto factored = convRows(convCols(in, col), row);
    ASSERT_EQ(direct.size(), factored.size());
    for (u64 i = 0; i < direct.size(); ++i)
        EXPECT_NEAR(direct.data[i], factored.data[i], 1e-10);
}

TEST(NnRef, ChannelMixAndScale)
{
    FeatureMap in(2, 1, 2);
    in.at(0, 0, 0) = 1;
    in.at(0, 0, 1) = 2;
    in.at(1, 0, 0) = 3;
    in.at(1, 0, 1) = 4;
    const auto mixed = channelMix(in, {2.0, -1.0});
    EXPECT_NEAR(mixed.at(0, 0, 0), -1.0, 1e-12);
    EXPECT_NEAR(mixed.at(0, 0, 1), 0.0, 1e-12);
    const auto scaled = channelScale(mixed, {1.0, -2.0});
    EXPECT_EQ(scaled.channels, 2u);
    EXPECT_NEAR(scaled.at(1, 0, 0), 2.0, 1e-12);
}

TEST(NnRef, MaxPoolPicksMax)
{
    FeatureMap in(1, 2, 4);
    const f64 vals[] = {1, 5, 2, 0, 3, -1, 8, 4};
    for (u32 i = 0; i < 8; ++i)
        in.data[i] = vals[i];
    const auto out = maxPool2x2(in);
    EXPECT_EQ(out.width, 2u);
    EXPECT_NEAR(out.at(0, 0, 0), 5.0, 1e-12);
    EXPECT_NEAR(out.at(0, 0, 1), 8.0, 1e-12);
}

TEST(NnRef, ReluAndArgmax)
{
    const std::vector<f64> v = {-1.0, 2.0, 0.5};
    const auto r = relu(v);
    EXPECT_EQ(r[0], 0.0);
    EXPECT_EQ(argmax(v), 1u);
}

TEST(NnRef, MacsCount)
{
    FilterBank f(4, 3, 2, 2);
    // 4*3*2*2 taps x (5-2+1)*(6-2+1) positions
    EXPECT_EQ(f.macs(5, 6), u64{4} * 3 * 2 * 2 * 4 * 5);
}

// Bit pins. The decompositions and reference loops below feed every
// compressed network and dataset in the zoo, so their per-element
// arithmetic (operation order, skip tests, starting values) is part
// of the contract. Restructuring a loop must leave these digests
// alone; a deliberate numeric change re-pins them and every
// downstream artifact in the same commit.

/** A seeded wide matrix with ~1/7 exact zeros (matmul's skip path). */
Matrix
pinMatrix()
{
    Rng rng(0xb175);
    Matrix a = Matrix::gaussian(48, 130, rng);
    for (u64 i = 0; i < a.size(); i += 7)
        a.data()[i] = 0.0;
    return a;
}

u64
digestOf(const Matrix &m, u64 h = testutil::kDigestBasis)
{
    return testutil::bitDigest(m.data(), h);
}

TEST(Pinned, SymmetricEigenBits)
{
    const Matrix a = pinMatrix();
    const auto eig = symmetricEigen(a.matmul(a.transpose()));
    const u64 d = digestOf(eig.vectors, testutil::bitDigest(eig.values));
    EXPECT_EQ(d, 0x0b4d54c395155586ull) << std::hex << d;
}

/** Every bit of a truncated SVD: singular values, U, then V. */
u64
svdDigest(const SvdResult &svd)
{
    return digestOf(svd.v, digestOf(svd.u, testutil::bitDigest(svd.s)));
}

/** pinMatrix() (48 x 130, A A^T) and its transpose (A^T A) at rank 9,
 * with their pinned svdDigest. */
std::vector<std::pair<Matrix, u64>>
svdPins()
{
    const Matrix a = pinMatrix();
    return {{a, 0x7d42b66489c0e649ull},
            {a.transpose(), 0x55738965456ec051ull}};
}

TEST(Pinned, TruncatedSvdBitsBothGramSides)
{
    for (const auto &[m, want] : svdPins()) {
        const u64 d = svdDigest(truncatedSvd(m, 9));
        EXPECT_EQ(d, want) << std::hex << d;
    }
}

TEST(EigenMemo, LowerRankIsAPrefixOfAWarmedSolution)
{
    // A rank-40 call leaves the whole solution in the memo; rank 9 is
    // then served from it, with the pinned bits on both Gram sides.
    for (const auto &[m, want] : svdPins()) {
        truncatedSvd(m, 40);
        const EigenSourceCounts before = eigenSourceCounts();
        const u64 d = svdDigest(truncatedSvd(m, 9));
        const EigenSourceCounts after = eigenSourceCounts();
        EXPECT_EQ(d, want) << std::hex << d;
        EXPECT_EQ(after.solves, before.solves);
        EXPECT_EQ(after.memoHits, before.memoHits + 1);
    }
}

TEST(EigenMemo, OneUlpApartIsSolvedAfresh)
{
    Rng rng(0x0a1b);
    const Matrix a = Matrix::gaussian(20, 33, rng);
    Matrix b = a;
    b.at(7, 11) = std::nextafter(b.at(7, 11), 1e300);

    const EigenSourceCounts start = eigenSourceCounts();
    const u64 first = svdDigest(truncatedSvd(a, 5));
    EXPECT_EQ(svdDigest(truncatedSvd(a, 5)), first);
    const EigenSourceCounts warm = eigenSourceCounts();
    EXPECT_EQ(warm.solves, start.solves + 1);
    EXPECT_EQ(warm.memoHits, start.memoHits + 1);

    // One ulp in one element: a different key, so b is solved, and
    // its singular values are those of its own Gram matrix.
    const SvdResult svd = truncatedSvd(b, 5);
    EXPECT_EQ(eigenSourceCounts().solves, warm.solves + 1);
    const EigenResult eig = symmetricEigen(gramMatrix(b, true));
    for (u32 i = 0; i < 5; ++i)
        EXPECT_EQ(svd.s[i], std::sqrt(std::max(0.0, eig.values[i])));
}

TEST(EigenMemo, DropsTheOldestPastItsBudget)
{
    // 8 x 9 matrices solve 8 x 8 Gram matrices. Past the budget's
    // worth of them the first is dropped and solved again, while the
    // last is still held.
    const auto matrix = [](u64 i) {
        Rng rng(0xb0d6e7 + i);
        return Matrix::gaussian(8, 9, rng);
    };
    const u64 solution_bytes = (8 * 8 + 8) * sizeof(f64);
    const u64 count = kEigenMemoBytes / solution_bytes + 100;
    for (u64 i = 0; i < count; ++i)
        truncatedSvd(matrix(i), 1);
    EXPECT_LE(memoizedEigens().size(), kEigenMemoBytes / solution_bytes);

    const EigenSourceCounts before = eigenSourceCounts();
    truncatedSvd(matrix(count - 1), 1);
    EXPECT_EQ(eigenSourceCounts().memoHits, before.memoHits + 1);
    truncatedSvd(matrix(0), 1);
    EXPECT_EQ(eigenSourceCounts().solves, before.solves + 1);
}

TEST(EigenMemo, ConcurrentMissesSolveOnce)
{
    // Four threads ask for the same fresh key at once (GENESIS' grid
    // starts every point together): one solve, identical bits.
    Rng rng(0x0c0c);
    const Matrix a = Matrix::gaussian(40, 24, rng);
    const EigenSourceCounts before = eigenSourceCounts();
    std::vector<u64> digests(4);
    std::latch start(4);
    std::vector<std::thread> threads;
    for (u32 t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            digests[t] = svdDigest(truncatedSvd(a, 6));
        });
    }
    for (auto &thread : threads)
        thread.join();
    const EigenSourceCounts after = eigenSourceCounts();
    for (u32 t = 1; t < 4; ++t)
        EXPECT_EQ(digests[t], digests[0]);
    EXPECT_EQ(after.solves, before.solves + 1);
    EXPECT_EQ(after.memoHits, before.memoHits + 3);
}

TEST(Pinned, Conv2dValidBits)
{
    // Output widths 9 (one full strip plus an overlapping one), 5 (the
    // scalar path) and 24 (three strips); ~1/5 of the taps pruned.
    struct Shape
    {
        u32 c, h, w, oc, kh, kw;
        u64 want;
    };
    const Shape shapes[] = {
        {3, 13, 11, 5, 4, 3, 0x627b23263c8d1bf8ull},
        {2, 7, 6, 3, 3, 2, 0xbf0a2c4ad52b729full},
        {1, 28, 28, 4, 5, 5, 0x58e2a435a47ea835ull},
    };
    Rng rng(0xc0);
    for (const auto &sh : shapes) {
        FeatureMap in(sh.c, sh.h, sh.w);
        for (auto &v : in.data)
            v = rng.gaussian();
        FilterBank f(sh.oc, sh.c, sh.kh, sh.kw);
        for (u64 i = 0; i < f.data.size(); ++i)
            f.data[i] = i % 5 == 2 ? 0.0 : rng.gaussian();
        const u64 d = testutil::bitDigest(conv2dValid(in, f).data);
        EXPECT_EQ(d, sh.want) << std::hex << d;
    }
}

/** SVD rank sweep as a parameterized property: reconstruction is
 * monotone in rank on the same matrix. */
class SvdRankSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(SvdRankSweep, ReconstructionImproves)
{
    Rng rng(99);
    static Matrix a = Matrix::gaussian(12, 9, rng);
    const u32 k = GetParam();
    const f64 err_k =
        a.relativeError(truncatedSvd(a, k).reconstruct());
    const f64 err_k1 =
        a.relativeError(truncatedSvd(a, k + 1).reconstruct());
    EXPECT_LE(err_k1, err_k + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SvdRankSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

} // namespace
} // namespace sonic::tensor
