/**
 * @file
 * The one binary codec: fixed-width little-endian values in a byte
 * string.
 *
 * Snapshots, journal records and network frames are byte strings
 * produced by ByteWriter and consumed by ByteReader. The format is
 * deliberately primitive: fixed-width little-endian integers, doubles
 * by IEEE-754 bit pattern, and length-prefixed byte strings. No
 * varints, no alignment, no endianness probes — the encoding of a
 * value sequence is the same on every platform, which is what makes
 * snapshot bytes comparable across runs (the recovery-equivalence
 * oracle diffs them directly).
 *
 * Values are assembled with shifts, written out byte by byte (a fold
 * expression, not a loop: at -O2 a loop inside a caller's loop stays a
 * loop of byte moves); on a little-endian target the compiler turns
 * the shifts into a single load or store, and elsewhere into a byte
 * swap, so no code path depends on the host byte order.
 *
 * Readers treat the input as untrusted (a crashed process or a lossy
 * wire may have left arbitrary bytes): every read is bounds-checked,
 * length prefixes are capped by the bytes actually present, and the
 * first failure is latched as a Status the caller checks once at the
 * end — the trust-boundary pattern from common/status.hh applied to
 * binary input.
 */

#ifndef AMDAHL_COMMON_BYTES_HH
#define AMDAHL_COMMON_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace amdahl {

namespace detail {

/** Store the low @p N bytes of @p v at @p out, least significant first. */
template <std::size_t N>
inline void
storeLe(char *out, std::uint64_t v)
{
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((out[I] = static_cast<char>(v >> (8 * I))), ...);
    }(std::make_index_sequence<N>{});
}

/** @return The @p N little-endian bytes at @p in as an integer. */
template <std::size_t N>
inline std::uint64_t
loadLe(const char *in)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return ((std::uint64_t{static_cast<unsigned char>(in[I])} << (8 * I)) |
                ...);
    }(std::make_index_sequence<N>{});
}

} // namespace detail

/**
 * Appends primitive values to a byte buffer (little-endian).
 *
 * Fixed-width values are stored into a small staging block and
 * appended to the buffer one block at a time, so a field costs a
 * store, not a call into the string; strings and vectors go straight
 * to the buffer after the block is flushed.
 */
class ByteWriter
{
  public:
    /** Reserve room for @p n bytes in total. */
    void reserve(std::size_t n) { buf.reserve(n); }

    /** Drop the bytes written so far and keep the capacity, so one
     *  writer can encode chunk after chunk. */
    void
    clear()
    {
        buf.clear();
        staged = 0;
    }

    /** Fold one byte. */
    void putU8(std::uint8_t v) { put<1>(v); }

    /** Fold one unsigned 32-bit value. */
    void putU32(std::uint32_t v) { put<4>(v); }

    /** Fold one unsigned 64-bit value. */
    void putU64(std::uint64_t v) { put<8>(v); }

    /** Fold a double by bit pattern (exact round trip). */
    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    /** Fold a byte string with a u64 length prefix. */
    void putString(std::string_view s);

    /** Fold a vector of doubles with a u64 count prefix. */
    void putF64Vector(const std::vector<double> &v);

    /** Fold a vector of u64 with a u64 count prefix. */
    void putU64Vector(const std::vector<std::uint64_t> &v);

    /** @return The accumulated bytes. */
    const std::string &
    bytes()
    {
        flush();
        return buf;
    }

    /** @return The accumulated bytes, moved out. */
    std::string
    take()
    {
        flush();
        return std::move(buf);
    }

  private:
    template <std::size_t N>
    void
    put(std::uint64_t v)
    {
        if (staged + N > sizeof stage)
            flush();
        detail::storeLe<N>(stage + staged, v);
        staged += N;
    }

    /** Append the staged bytes to the buffer. */
    void flush();

    /**
     * Grow the buffer by @p n bytes and @return where they start.
     * Capacity doubles from the current one, so a large vector does
     * not reset the growth to an exact fit: that would round the final
     * capacity of a large state up from an arbitrary base and raise
     * its peak memory.
     */
    char *extend(std::size_t n);

    std::string buf;
    char stage[256];
    std::size_t staged = 0;
};

/**
 * Bounds-checked reader over an encoded byte string.
 *
 * On underrun or an implausible length prefix the reader latches a
 * ParseError and every subsequent read returns a zero value; callers
 * check status() once after decoding instead of after every field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : in(data) {}

    /** @return The next byte, or 0 after a latched failure. */
    std::uint8_t
    readU8()
    {
        if (!need(1, "u8"))
            return 0;
        return static_cast<std::uint8_t>(in[pos++]);
    }

    /** @return The next u32, or 0 after a latched failure. */
    std::uint32_t
    readU32()
    {
        if (!need(4, "u32"))
            return 0;
        const auto v = static_cast<std::uint32_t>(
            detail::loadLe<4>(in.data() + pos));
        pos += 4;
        return v;
    }

    /** @return The next u64, or 0 after a latched failure. */
    std::uint64_t
    readU64()
    {
        if (!need(8, "u64"))
            return 0;
        const std::uint64_t v = detail::loadLe<8>(in.data() + pos);
        pos += 8;
        return v;
    }

    /** @return The next double, or 0.0 after a latched failure. */
    double readF64() { return std::bit_cast<double>(readU64()); }

    /** @return The next length-prefixed byte string, or "" on failure. */
    std::string readString();

    /** @return The next count-prefixed double vector ({} on failure). */
    std::vector<double> readF64Vector();

    /** @return The next count-prefixed u64 vector ({} on failure). */
    std::vector<std::uint64_t> readU64Vector();

    /** @return Bytes not yet consumed. */
    std::size_t remaining() const { return in.size() - pos; }

    /** @return true when no read has failed so far. */
    bool ok() const { return st.isOk(); }

    /** @return The latched first failure, or Status::ok(). */
    const Status &status() const { return st; }

    /**
     * Require that every input byte was consumed; trailing garbage
     * latches a ParseError (a well-formed record decodes exactly).
     */
    void expectEnd();

  protected:
    /** Latch @p failure unless a failure is already latched. */
    void latch(Status failure);

  private:
    /** @return true when @p n more bytes may be consumed. */
    bool
    need(std::size_t n, const char *what)
    {
        return (st.isOk() && in.size() - pos >= n) || fail(n, what);
    }

    /** Latch the underrun of a @p n-byte @p what (unless a failure is
     *  already latched); @return false. */
    bool fail(std::size_t n, const char *what);

    /** @return The next count prefix of 8-byte elements, latching a
     *  ParseError when fewer than that many elements remain. */
    std::uint64_t readCount8(const char *what);

    std::string_view in;
    std::size_t pos = 0;
    Status st = Status::ok();
};

/**
 * The writing end of a field walk.
 *
 * A record's layout is written once, as a function template that hands
 * the record's fields, in order, to `io(fields...)`, and a container of
 * records to `io.records(container, walkOne)`:
 *
 *     template <class Io, class Entry>
 *     void walkEntry(Io &io, Entry &e) { io(e.epoch, e.crc); }
 *
 * Called with a FieldWriter and a const record it encodes, and with a
 * FieldReader it decodes, so the two ends cannot list different
 * fields. A field's type picks its bytes: a u32 or u64 as itself, a
 * double by bit pattern, an int as the u64 of its sign extension, and
 * a vector or a container of records as a u64 count and then its
 * elements (a vector<char> as a byte string).
 */
class FieldWriter : public ByteWriter
{
  public:
    template <class... T>
    void
    operator()(const T &...fields)
    {
        (field(fields), ...);
    }

    /** Fold the count of @p recs, then each record by @p walkOne. */
    template <class Records, class Walk>
    void
    records(const Records &recs, Walk walkOne)
    {
        putU64(recs.size());
        for (const auto &rec : recs)
            walkOne(rec);
    }

  private:
    void field(std::uint32_t v) { putU32(v); }
    void field(std::uint64_t v) { putU64(v); }
    void field(int v) { putU64(static_cast<std::uint64_t>(std::int64_t{v})); }
    void field(double v) { putF64(v); }
    void field(const std::vector<double> &v) { putF64Vector(v); }
    void field(const std::vector<std::uint64_t> &v) { putU64Vector(v); }
    void field(const std::vector<char> &v) { putString({v.data(), v.size()}); }

    void
    field(const std::vector<int> &v)
    {
        records(v, [&](int x) { field(x); });
    }
};

/**
 * The reading end of a field walk (see FieldWriter). Every int field
 * is a count: a value outside [0, INT_MAX] latches a SemanticError, so
 * a decoded record never holds a value other than the one its bytes
 * spell.
 */
class FieldReader : public ByteReader
{
  public:
    using ByteReader::ByteReader;

    template <class... T>
    void
    operator()(T &...fields)
    {
        (field(fields), ...);
    }

    /** Read a count, then that many records into @p recs by
     *  @p walkOne, stopping at the first failure. */
    template <class Records, class Walk>
    void
    records(Records &recs, Walk walkOne)
    {
        const std::uint64_t n = readU64();
        for (std::uint64_t i = 0; ok() && i < n; ++i)
            walkOne(recs.emplace_back());
    }

  private:
    void field(std::uint32_t &v) { v = readU32(); }
    void field(std::uint64_t &v) { v = readU64(); }
    void field(int &v);
    void field(double &v) { v = readF64(); }
    void field(std::vector<double> &v) { v = readF64Vector(); }
    void field(std::vector<std::uint64_t> &v) { v = readU64Vector(); }
    void field(std::vector<char> &v);
    void field(std::vector<int> &v) { records(v, [&](int &x) { field(x); }); }
};

} // namespace amdahl

#endif // AMDAHL_COMMON_BYTES_HH
