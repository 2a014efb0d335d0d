/**
 * @file
 * Typed memory handles bound to a Device.
 *
 * NvArray/NvVar model FRAM: contents persist across power failures and
 * every runtime access is charged (FramLoad/FramStore). VolArray/VolVar
 * model SRAM: cheaper accesses, but contents are scrambled with
 * deterministic garbage at every reboot so code that wrongly relies on
 * volatile persistence fails loudly rather than silently.
 *
 * peek/poke accessors bypass charging; they model programming-time
 * initialization (flashing weights) and host-side result inspection,
 * never device-side computation.
 */

#ifndef SONIC_ARCH_MEMORY_HH
#define SONIC_ARCH_MEMORY_HH

#include <algorithm>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace sonic::arch
{

/** Non-volatile (FRAM) array of trivially-copyable elements. */
template <typename T>
class NvArray : public NvmDigestible
{
  public:
    NvArray(Device &dev, u64 n, std::string name)
        : dev_(dev), name_(std::move(name)), data_(n, T{})
    {
        dev_.allocFram(n * sizeof(T), name_);
        dev_.registerNonVolatile(this);
    }

    ~NvArray() override
    {
        dev_.unregisterNonVolatile(this);
        dev_.freeFram(data_.size() * sizeof(T));
    }

    NvArray(const NvArray &) = delete;
    NvArray &operator=(const NvArray &) = delete;

    /** Charged read of element i. */
    T
    read(u64 i) const
    {
        SONIC_DASSERT(i < data_.size(), "NvArray '", name_, "' read OOB");
        dev_.consume(Op::FramLoad, words());
        return data_[i];
    }

    /** Charged write of element i. May throw PowerFailure *before* the
     * write lands: a store either completes or never happens, modelling
     * FRAM's word-level write atomicity. */
    void
    write(u64 i, T v)
    {
        SONIC_DASSERT(i < data_.size(), "NvArray '", name_, "' write OOB");
        dev_.consume(Op::FramStore, words());
        data_[i] = v;
    }

    /** @name Bulk span accessors
     * Charge n elements' worth of word accesses in a single consume
     * call (one power-supply interaction instead of n), with identical
     * cycle/energy/op-count totals to n single accesses. A span is
     * atomic: PowerFailure is thrown before any element transfers, so
     * callers must only use spans where an all-or-nothing unit is
     * acceptable (write-once/idempotent loops — see the kernels).
     */
    /// @{

    /** Charged bulk read of [base, base+n) into out. */
    void
    readRange(u64 base, u64 n, T *out) const
    {
        SONIC_DASSERT(base + n <= data_.size(), "NvArray '", name_,
                      "' readRange OOB");
        dev_.consume(Op::FramLoad, words() * n);
        std::copy_n(data_.begin() + static_cast<i64>(base), n, out);
    }

    /** Charged strided bulk read: out[k] = [base + k*stride], one
     * charge for the whole gather (a dense-FC weight column). */
    void
    readStride(u64 base, u64 stride, u64 n, T *out) const
    {
        SONIC_DASSERT(n == 0
                          || base + (n - 1) * stride < data_.size(),
                      "NvArray '", name_, "' readStride OOB");
        dev_.consume(Op::FramLoad, words() * n);
        for (u64 k = 0; k < n; ++k)
            out[k] = data_[base + k * stride];
    }

    /** Charged bulk write of [base, base+n) from src; all-or-nothing. */
    void
    writeRange(u64 base, u64 n, const T *src)
    {
        SONIC_DASSERT(base + n <= data_.size(), "NvArray '", name_,
                      "' writeRange OOB");
        dev_.consume(Op::FramStore, words() * n);
        std::copy_n(src, n, data_.begin() + static_cast<i64>(base));
    }

    /** Charged bulk fill of [base, base+n) with v; all-or-nothing. */
    void
    fillRange(u64 base, u64 n, T v)
    {
        SONIC_DASSERT(base + n <= data_.size(), "NvArray '", name_,
                      "' fillRange OOB");
        dev_.consume(Op::FramStore, words() * n);
        std::fill_n(data_.begin() + static_cast<i64>(base), n, v);
    }

    /**
     * Charged bulk read-modify-write of [base, base+n): charges n
     * loads then n stores (two consume calls), then applies
     * f(old_value, span_index) -> new_value to each element. The span
     * updates only after both charges succeed.
     */
    template <typename F>
    void
    accumRange(u64 base, u64 n, F &&f)
    {
        SONIC_DASSERT(base + n <= data_.size(), "NvArray '", name_,
                      "' accumRange OOB");
        dev_.consume(Op::FramLoad, words() * n);
        dev_.consume(Op::FramStore, words() * n);
        for (u64 k = 0; k < n; ++k)
            data_[base + k] = f(data_[base + k], k);
    }
    /// @}

    /** Uncharged host access (initialization / verification only). */
    T
    peek(u64 i) const
    {
        SONIC_DASSERT(i < data_.size());
        return data_[i];
    }

    void
    poke(u64 i, T v)
    {
        SONIC_DASSERT(i < data_.size());
        data_[i] = v;
    }

    /** Uncharged bulk write of [base, base+n) from src. */
    void
    pokeRange(u64 base, u64 n, const T *src)
    {
        SONIC_DASSERT(base + n <= data_.size());
        std::copy_n(src, n, data_.begin() + static_cast<i64>(base));
    }

    void
    fillHost(T v)
    {
        for (auto &x : data_)
            x = v;
    }

    u64 size() const { return data_.size(); }
    const std::string &name() const { return name_; }

    /** Element-wise region digest (see arch/nvm_digest.hh). */
    void
    digestInto(NvmDigest &d) const override
    {
        d.word(data_.size());
        for (const T &v : data_)
            d.element(v);
    }

  private:
    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2; // 16-bit FRAM word accesses
    }

    Device &dev_;
    std::string name_;
    std::vector<T> data_;
};

/** Non-volatile (FRAM) scalar. */
template <typename T>
class NvVar : public NvmDigestible
{
  public:
    NvVar(Device &dev, std::string name, T initial = T{})
        : dev_(dev), name_(std::move(name)), value_(initial)
    {
        dev_.allocFram(sizeof(T), name_);
        dev_.registerNonVolatile(this);
    }

    ~NvVar() override
    {
        dev_.unregisterNonVolatile(this);
        dev_.freeFram(sizeof(T));
    }

    NvVar(const NvVar &) = delete;
    NvVar &operator=(const NvVar &) = delete;

    /** Charged read. */
    T
    read() const
    {
        dev_.consume(Op::FramLoad, words());
        return value_;
    }

    /** Charged, atomic write (see NvArray::write). */
    void
    write(T v)
    {
        dev_.consume(Op::FramStore, words());
        value_ = v;
    }

    /**
     * Charge n logically-consecutive writes of which only the last
     * value is observable — the shape of a loop-carried index that a
     * span-processing loop would have stored n times. Cycle/energy/op
     * totals match n write() calls; the unit is atomic (the value only
     * lands if the whole charge succeeds), which is safe exactly where
     * the span itself is idempotent.
     */
    void
    writeCoalesced(T v, u64 n)
    {
        dev_.consume(Op::FramStore, words() * n);
        value_ = v;
    }

    /** Uncharged host access. */
    T peek() const { return value_; }
    void poke(T v) { value_ = v; }

    const std::string &name() const { return name_; }

    void
    digestInto(NvmDigest &d) const override
    {
        d.element(value_);
    }

  private:
    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2;
    }

    Device &dev_;
    std::string name_;
    T value_;
};

/**
 * Volatile (SRAM) array. Contents are replaced by deterministic garbage
 * at every reboot.
 */
template <typename T>
class VolArray : public VolatileResettable
{
  public:
    VolArray(Device &dev, u64 n, std::string name)
        : dev_(dev), name_(std::move(name)), data_(n, T{})
    {
        dev_.allocSram(n * sizeof(T), name_);
        dev_.registerVolatile(this);
    }

    ~VolArray() override
    {
        dev_.unregisterVolatile(this);
        dev_.freeSram(data_.size() * sizeof(T));
    }

    VolArray(const VolArray &) = delete;
    VolArray &operator=(const VolArray &) = delete;

    T
    read(u64 i) const
    {
        SONIC_DASSERT(i < data_.size(), "VolArray '", name_, "' read OOB");
        dev_.consume(Op::SramLoad, words());
        return data_[i];
    }

    void
    write(u64 i, T v)
    {
        SONIC_DASSERT(i < data_.size(), "VolArray '", name_, "' write OOB");
        dev_.consume(Op::SramStore, words());
        data_[i] = v;
    }

    /** @name Bulk span accessors (see NvArray) */
    /// @{
    void
    readRange(u64 base, u64 n, T *out) const
    {
        SONIC_DASSERT(base + n <= data_.size(), "VolArray '", name_,
                      "' readRange OOB");
        dev_.consume(Op::SramLoad, words() * n);
        std::copy_n(data_.begin() + static_cast<i64>(base), n, out);
    }

    void
    writeRange(u64 base, u64 n, const T *src)
    {
        SONIC_DASSERT(base + n <= data_.size(), "VolArray '", name_,
                      "' writeRange OOB");
        dev_.consume(Op::SramStore, words() * n);
        std::copy_n(src, n, data_.begin() + static_cast<i64>(base));
    }

    void
    fillRange(u64 base, u64 n, T v)
    {
        SONIC_DASSERT(base + n <= data_.size(), "VolArray '", name_,
                      "' fillRange OOB");
        dev_.consume(Op::SramStore, words() * n);
        std::fill_n(data_.begin() + static_cast<i64>(base), n, v);
    }

    template <typename F>
    void
    accumRange(u64 base, u64 n, F &&f)
    {
        SONIC_DASSERT(base + n <= data_.size(), "VolArray '", name_,
                      "' accumRange OOB");
        dev_.consume(Op::SramLoad, words() * n);
        dev_.consume(Op::SramStore, words() * n);
        for (u64 k = 0; k < n; ++k)
            data_[base + k] = f(data_[base + k], k);
    }
    /// @}

    T
    peek(u64 i) const
    {
        SONIC_DASSERT(i < data_.size());
        return data_[i];
    }

    void
    poke(u64 i, T v)
    {
        SONIC_DASSERT(i < data_.size());
        data_[i] = v;
    }

    void
    onReboot(u64 reboot_index) override
    {
        // Deterministic garbage: distinct per reboot and per element.
        u64 x = reboot_index * 0x9e3779b97f4a7c15ull + 1;
        for (auto &v : data_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<T>(x);
        }
    }

    u64 size() const { return data_.size(); }

  private:
    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2;
    }

    Device &dev_;
    std::string name_;
    std::vector<T> data_;
};

/** Volatile (SRAM) scalar; garbage after reboot. */
template <typename T>
class VolVar : public VolatileResettable
{
  public:
    VolVar(Device &dev, std::string name, T initial = T{})
        : dev_(dev), name_(std::move(name)), value_(initial)
    {
        dev_.allocSram(sizeof(T), name_);
        dev_.registerVolatile(this);
    }

    ~VolVar() override
    {
        dev_.unregisterVolatile(this);
        dev_.freeSram(sizeof(T));
    }

    VolVar(const VolVar &) = delete;
    VolVar &operator=(const VolVar &) = delete;

    T
    read() const
    {
        dev_.consume(Op::SramLoad, words());
        return value_;
    }

    void
    write(T v)
    {
        dev_.consume(Op::SramStore, words());
        value_ = v;
    }

    T peek() const { return value_; }
    void poke(T v) { value_ = v; }

    void
    onReboot(u64 reboot_index) override
    {
        u64 x = reboot_index * 0xd1342543de82ef95ull + 7;
        x ^= x >> 33;
        value_ = static_cast<T>(x);
    }

  private:
    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2;
    }

    Device &dev_;
    std::string name_;
    T value_;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_MEMORY_HH
