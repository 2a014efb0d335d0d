#include "tensor/decompose.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>

#include "tensor/eigen_table.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::tensor
{

namespace
{

/**
 * Givens rotation of two rows: x' = c*x - s*y, y' = s*x + c*y per
 * element. The rows never alias, so the compiler may vectorize the
 * loop; each element keeps its scalar expression exactly.
 */
void
rotateRows(f64 *__restrict x, f64 *__restrict y, u32 n, f64 c, f64 s)
{
    for (u32 k = 0; k < n; ++k) {
        const f64 xk = x[k];
        const f64 yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

} // namespace

/**
 * The Gram matrix A A^T (rows) or A^T A (!rows), bit for bit what
 * a.matmul(a.transpose()) and a.transpose().matmul(a) compute, with
 * half their multiply-adds and no transposed copy of A.
 *
 * Both matmul forms sum G(r, c) = sum_k x_k * y_k in ascending k from
 * +0.0, where x and y are A's rows (or columns) r and c, skipping the
 * terms whose left factor is zero. For finite entries a skipped term
 * is a +-0 product, and adding +-0 to an accumulator that starts at
 * +0.0 changes no bit: x + (+-0) == x for x != 0, and the accumulator
 * can never become -0, since only -0 + -0 gives -0. Products commute
 * exactly, so G(c, r) has G(r, c)'s bits: the upper triangle is
 * computed and mirrored.
 */
Matrix
gramMatrix(const Matrix &a, bool rows)
{
    const u32 m = a.rows();
    const u32 n = a.cols();
    const u32 g = rows ? m : n;
    Matrix gram(g, g);
    const f64 *src = a.data().data();
    f64 *out = gram.data().data();
    if (rows) {
        // Row dot products, four columns of G at a time: four
        // independent accumulators, each in ascending k.
        for (u32 r = 0; r < g; ++r) {
            const f64 *x = src + u64{r} * n;
            f64 *grow = out + u64{r} * g;
            u32 c = r;
            for (; c + 4 <= g; c += 4) {
                const f64 *y0 = src + u64{c} * n;
                const f64 *y1 = y0 + n;
                const f64 *y2 = y1 + n;
                const f64 *y3 = y2 + n;
                f64 s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (u32 k = 0; k < n; ++k) {
                    const f64 xk = x[k];
                    s0 += xk * y0[k];
                    s1 += xk * y1[k];
                    s2 += xk * y2[k];
                    s3 += xk * y3[k];
                }
                grow[c] = s0;
                grow[c + 1] = s1;
                grow[c + 2] = s2;
                grow[c + 3] = s3;
            }
            for (; c < g; ++c) {
                const f64 *y = src + u64{c} * n;
                f64 sum = 0.0;
                for (u32 k = 0; k < n; ++k)
                    sum += x[k] * y[k];
                grow[c] = sum;
            }
        }
    } else {
        // Column r of A against columns r.. of A: matmul's row sweep
        // over A's rows, reading A(k, r) in place of A^T(r, k).
        for (u32 r = 0; r < g; ++r) {
            f64 *__restrict grow = out + u64{r} * g;
            for (u32 k = 0; k < m; ++k) {
                const f64 *__restrict arow = src + u64{k} * n;
                const f64 x = arow[r];
                if (x == 0.0)
                    continue;
                for (u32 c = r; c < g; ++c)
                    grow[c] += x * arow[c];
            }
        }
    }
    for (u32 r = 0; r < g; ++r)
        for (u32 c = r + 1; c < g; ++c)
            out[u64{c} * g + r] = out[u64{r} * g + c];
    return gram;
}

namespace
{

/**
 * symmetricEigen's eigenpairs with each eigenvector stored as a
 * contiguous column: vector i is vectors[i * dim, (i + 1) * dim). The
 * layout the memo and the build-time table keep, since a rank-k
 * projection then reads only the first k * dim values.
 */
struct EigenColumns
{
    u32 dim = 0;
    std::vector<f64> values;  ///< descending
    std::vector<f64> vectors; ///< dim x dim, column-contiguous
};

EigenColumns
jacobiColumns(const Matrix &sym, u32 max_sweeps, f64 tol)
{
    SONIC_ASSERT(sym.rows() == sym.cols(), "symmetricEigen needs square");
    const u32 n = sym.rows();
    // A stays a full matrix: rounding makes it asymmetric in the last
    // ulp within the first sweep, and the column and row passes below
    // must see those exact values. V is held transposed (row i is
    // eigenvector i) so its rotation is a contiguous two-row update.
    Matrix am = sym;
    Matrix vt = Matrix::identity(n);
    f64 *a = am.data().data();
    f64 *v = vt.data().data();
    const auto row = [n](f64 *m, u32 r) { return m + u64{r} * n; };

    for (u32 sweep = 0; sweep < max_sweeps; ++sweep) {
        f64 off = 0.0;
        for (u32 p = 0; p < n; ++p) {
            const f64 *ap = row(a, p);
            for (u32 q = p + 1; q < n; ++q)
                off += ap[q] * ap[q];
        }
        if (off < tol * tol)
            break;

        for (u32 p = 0; p < n; ++p) {
            f64 *ap = row(a, p);
            for (u32 q = p + 1; q < n; ++q) {
                f64 *aq = row(a, q);
                const f64 apq = ap[q];
                if (std::fabs(apq) < 1e-300)
                    continue;
                const f64 app = ap[p];
                const f64 aqq = aq[q];
                const f64 theta = (aqq - app) / (2.0 * apq);
                const f64 t = (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::fabs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const f64 c = 1.0 / std::sqrt(t * t + 1.0);
                const f64 s = t * c;

                // Column pass (A <- A J), then row pass (A <- J^T A).
                for (f64 *ak = a; ak != a + u64{n} * n; ak += n) {
                    const f64 akp = ak[p];
                    const f64 akq = ak[q];
                    ak[p] = c * akp - s * akq;
                    ak[q] = s * akp + c * akq;
                }
                rotateRows(ap, aq, n, c, s);
                rotateRows(row(v, p), row(v, q), n, c, s);
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    std::vector<u32> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](u32 x, u32 y) {
        return row(a, x)[x] > row(a, y)[y];
    });

    EigenColumns result;
    result.dim = n;
    result.values.resize(n);
    result.vectors.resize(u64{n} * n);
    for (u32 i = 0; i < n; ++i) {
        result.values[i] = row(a, order[i])[order[i]];
        const f64 *vi = row(v, order[i]);
        std::copy(vi, vi + n, result.vectors.begin() + u64{i} * n);
    }
    return result;
}

// --- The eigen memo ---------------------------------------------------

/** A solution truncatedSvd projects from: eigenvalues and contiguous
 * eigenvector columns, kept alive by `owner` (null for the table). */
struct EigenView
{
    const f64 *values = nullptr;
    const f64 *vectors = nullptr;
    std::shared_ptr<const void> owner;
};

struct MemoKey
{
    u64 digest;
    u32 rows;
    u32 cols;
    bool gramRows;

    auto operator<=>(const MemoKey &) const = default;
};

/**
 * Process-wide memo of full eigen-solutions. Each key has one slot;
 * the first caller solves it inside the slot's once_flag and any
 * concurrent caller waits there, so a key is solved once however many
 * workers ask. Finished solutions are charged against kEigenMemoBytes,
 * and the oldest are dropped once it is exceeded (a dropped solution
 * stays alive for the callers still projecting from it).
 */
class EigenMemo
{
  public:
    static EigenMemo &
    instance()
    {
        static EigenMemo memo;
        return memo;
    }

    /** The solution for a's Gram side, with at least k eigenpairs (a
     * table entry is a prefix: a rank beyond it is solved). */
    EigenView
    lookup(const Matrix &a, const MemoKey &key, u32 k)
    {
        for (const TabledEigen &t : tabledEigens()) {
            if (MemoKey{t.digest, t.rows, t.cols, t.gramRows} == key
                && k <= t.rank) {
                tableHits_.fetch_add(1, std::memory_order_relaxed);
                return {t.values, t.vectors, nullptr};
            }
        }

        std::shared_ptr<Slot> slot;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::shared_ptr<Slot> &found = slots_[key];
            if (!found)
                found = std::make_shared<Slot>();
            found->maxRank = std::max(found->maxRank, k);
            slot = found;
        }
        bool solved = false;
        std::call_once(slot->once, [&] {
            slot->solution = jacobiColumns(gramMatrix(a, key.gramRows),
                                           kJacobiMaxSweeps, kJacobiTol);
            solved = true;
        });
        if (solved) {
            solves_.fetch_add(1, std::memory_order_relaxed);
            charge(key, slot->solution);
        } else {
            memoHits_.fetch_add(1, std::memory_order_relaxed);
        }
        const EigenColumns &s = slot->solution;
        return {s.values.data(), s.vectors.data(), std::move(slot)};
    }

    std::vector<MemoizedEigen>
    held()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<MemoKey> keys(order_.begin(), order_.end());
        std::sort(keys.begin(), keys.end());
        std::vector<MemoizedEigen> out;
        for (const MemoKey &key : keys) {
            const Slot &slot = *slots_.at(key);
            const EigenColumns &s = slot.solution;
            const u32 rank = slot.maxRank;
            out.push_back({key.digest, key.rows, key.cols, key.gramRows,
                           s.dim, rank,
                           {s.values.begin(), s.values.begin() + rank},
                           {s.vectors.begin(),
                            s.vectors.begin() + u64{rank} * s.dim}});
        }
        return out;
    }

    EigenSourceCounts
    counts() const
    {
        return {tableHits_.load(std::memory_order_relaxed),
                memoHits_.load(std::memory_order_relaxed),
                solves_.load(std::memory_order_relaxed)};
    }

  private:
    struct Slot
    {
        std::once_flag once;
        EigenColumns solution;
        u32 maxRank = 0; ///< largest k asked of it (under mutex_)
    };

    static u64
    bytesOf(const EigenColumns &s)
    {
        return (s.values.size() + s.vectors.size()) * sizeof(f64);
    }

    /** Charge a finished solution and drop the oldest over budget. */
    void
    charge(const MemoKey &key, const EigenColumns &solution)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bytes_ += bytesOf(solution);
        order_.push_back(key);
        while (bytes_ > kEigenMemoBytes) {
            const auto it = slots_.find(order_.front());
            bytes_ -= bytesOf(it->second->solution);
            slots_.erase(it);
            order_.pop_front();
        }
    }

    std::mutex mutex_;
    std::map<MemoKey, std::shared_ptr<Slot>> slots_;
    std::deque<MemoKey> order_; ///< finished keys, oldest first
    u64 bytes_ = 0;
    std::atomic<u64> tableHits_{0};
    std::atomic<u64> memoHits_{0};
    std::atomic<u64> solves_{0};
};

} // namespace

EigenResult
symmetricEigen(const Matrix &sym, u32 max_sweeps, f64 tol)
{
    const EigenColumns cols = jacobiColumns(sym, max_sweeps, tol);
    const u32 n = cols.dim;
    EigenResult result;
    result.values = cols.values;
    result.vectors = Matrix(n, n);
    f64 *out = result.vectors.data().data();
    for (u32 i = 0; i < n; ++i)
        for (u32 r = 0; r < n; ++r)
            out[u64{r} * n + i] = cols.vectors[u64{i} * n + r];
    return result;
}

EigenSourceCounts
eigenSourceCounts()
{
    return EigenMemo::instance().counts();
}

std::vector<MemoizedEigen>
memoizedEigens()
{
    return EigenMemo::instance().held();
}

Matrix
SvdResult::reconstruct() const
{
    const u32 m = u.rows();
    const u32 n = v.rows();
    const u32 k = static_cast<u32>(s.size());
    Matrix out(m, n);
    for (u32 r = 0; r < m; ++r)
        for (u32 c = 0; c < n; ++c) {
            f64 acc = 0.0;
            for (u32 i = 0; i < k; ++i)
                acc += u.at(r, i) * s[i] * v.at(c, i);
            out.at(r, c) = acc;
        }
    return out;
}

u64
SvdResult::factoredParams() const
{
    return u64{u.rows()} * u.cols() + u64{v.rows()} * v.cols();
}

SvdResult
truncatedSvd(const Matrix &a, u32 k)
{
    const u32 m = a.rows();
    const u32 n = a.cols();
    SONIC_ASSERT(k >= 1 && k <= std::min(m, n), "invalid SVD rank");

    // Work with the smaller Gram matrix.
    const bool use_rows = m <= n;
    const EigenView eig = EigenMemo::instance().lookup(
        a, {wordDigest(a.data().data(), a.size()), m, n, use_rows}, k);

    SvdResult result;
    result.s.resize(k);
    result.u = Matrix(m, k);
    result.v = Matrix(n, k);
    // The eigenvectors span the Gram side (U when use_rows, else V);
    // the other side is A^T u_i / sigma or A v_i / sigma. Each of
    // those sums runs in ascending index order from 0.0.
    const u32 g = use_rows ? m : n;
    const u32 other = use_rows ? n : m;
    Matrix &gram_side = use_rows ? result.u : result.v;
    Matrix &other_side = use_rows ? result.v : result.u;
    const f64 *arow0 = a.data().data();
    std::vector<f64> acc(other);
    for (u32 i = 0; i < k; ++i) {
        const f64 sigma = std::sqrt(std::max(0.0, eig.values[i]));
        result.s[i] = sigma;
        const f64 *vec = eig.vectors + u64{i} * g;
        for (u32 r = 0; r < g; ++r)
            gram_side.data()[u64{r} * k + i] = vec[r];
        if (!(sigma > 1e-300))
            continue;
        if (use_rows) {
            // acc[c] = sum_r A(r, c) * u_i[r], swept a row at a time.
            std::fill(acc.begin(), acc.end(), 0.0);
            for (u32 r = 0; r < m; ++r) {
                const f64 *__restrict arow = arow0 + u64{r} * n;
                f64 *__restrict out = acc.data();
                const f64 ur = vec[r];
                for (u32 c = 0; c < n; ++c)
                    out[c] += arow[c] * ur;
            }
        } else {
            for (u32 r = 0; r < m; ++r) {
                const f64 *arow = arow0 + u64{r} * n;
                f64 sum = 0.0;
                for (u32 c = 0; c < n; ++c)
                    sum += arow[c] * vec[c];
                acc[r] = sum;
            }
        }
        for (u32 j = 0; j < other; ++j)
            other_side.data()[u64{j} * k + i] = acc[j] / sigma;
    }
    return result;
}

Tensor3
Cp1Result::reconstruct(u32 d0, u32 d1, u32 d2) const
{
    SONIC_ASSERT(a.size() == d0 && b.size() == d1 && c.size() == d2);
    Tensor3 out(d0, d1, d2);
    for (u32 i = 0; i < d0; ++i)
        for (u32 j = 0; j < d1; ++j)
            for (u32 k = 0; k < d2; ++k)
                out.at(i, j, k) = lambda * a[i] * b[j] * c[k];
    return out;
}

u64
Cp1Result::factoredParams() const
{
    return a.size() + b.size() + c.size() + 1;
}

namespace
{

f64
norm(const std::vector<f64> &v)
{
    f64 sum = 0.0;
    for (f64 x : v)
        sum += x * x;
    return std::sqrt(sum);
}

void
normalize(std::vector<f64> &v)
{
    const f64 n = norm(v);
    if (n > 1e-300)
        for (f64 &x : v)
            x /= n;
}

} // namespace

Cp1Result
cpRank1(const Tensor3 &t, u32 max_iters, f64 tol)
{
    const u32 d0 = t.dim0();
    const u32 d1 = t.dim1();
    const u32 d2 = t.dim2();

    Cp1Result cp;
    cp.a.assign(d0, 1.0 / std::sqrt(static_cast<f64>(d0)));
    cp.b.assign(d1, 1.0 / std::sqrt(static_cast<f64>(d1)));
    cp.c.assign(d2, 1.0 / std::sqrt(static_cast<f64>(d2)));

    f64 prev_lambda = 0.0;
    for (u32 iter = 0; iter < max_iters; ++iter) {
        // a <- T x_1 (b, c)
        for (u32 i = 0; i < d0; ++i) {
            f64 acc = 0.0;
            for (u32 j = 0; j < d1; ++j)
                for (u32 k = 0; k < d2; ++k)
                    acc += t.at(i, j, k) * cp.b[j] * cp.c[k];
            cp.a[i] = acc;
        }
        normalize(cp.a);

        // b <- T x_2 (a, c)
        for (u32 j = 0; j < d1; ++j) {
            f64 acc = 0.0;
            for (u32 i = 0; i < d0; ++i)
                for (u32 k = 0; k < d2; ++k)
                    acc += t.at(i, j, k) * cp.a[i] * cp.c[k];
            cp.b[j] = acc;
        }
        normalize(cp.b);

        // c <- T x_3 (a, b); lambda is its norm.
        for (u32 k = 0; k < d2; ++k) {
            f64 acc = 0.0;
            for (u32 i = 0; i < d0; ++i)
                for (u32 j = 0; j < d1; ++j)
                    acc += t.at(i, j, k) * cp.a[i] * cp.b[j];
            cp.c[k] = acc;
        }
        cp.lambda = norm(cp.c);
        normalize(cp.c);

        if (std::fabs(cp.lambda - prev_lambda)
            <= tol * std::max(1.0, std::fabs(cp.lambda))) {
            break;
        }
        prev_lambda = cp.lambda;
    }
    return cp;
}

f64
cpRank1Error(const Tensor3 &t, const Cp1Result &cp)
{
    const f64 denom = t.frobeniusNorm();
    if (denom == 0.0)
        return 0.0;
    Tensor3 rec = cp.reconstruct(t.dim0(), t.dim1(), t.dim2());
    f64 sum = 0.0;
    for (u64 i = 0; i < t.size(); ++i) {
        const f64 d = t.data()[i] - rec.data()[i];
        sum += d * d;
    }
    return std::sqrt(sum) / denom;
}

} // namespace sonic::tensor
