#include "common/bytes.hh"

#include <algorithm>
#include <cstring>
#include <limits>

namespace amdahl {

using detail::loadLe;
using detail::storeLe;

char *
ByteWriter::extend(std::size_t n)
{
    const std::size_t need = buf.size() + n;
    if (need > buf.capacity()) {
        std::size_t cap = std::max<std::size_t>(buf.capacity(), 1);
        while (cap < need)
            cap *= 2;
        buf.reserve(cap);
    }
    buf.resize(need);
    return buf.data() + need - n;
}

void
ByteWriter::flush()
{
    if (staged > 0) {
        std::memcpy(extend(staged), stage, staged);
        staged = 0;
    }
}

void
ByteWriter::putString(std::string_view s)
{
    putU64(s.size());
    flush();
    // The string's own append: a large body (a snapshot's state) gets
    // an exact fit, not a doubled capacity.
    buf.append(s.data(), s.size());
}

void
ByteWriter::putF64Vector(const std::vector<double> &v)
{
    putU64(v.size());
    flush();
    char *out = extend(8 * v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        storeLe<8>(out + 8 * i, std::bit_cast<std::uint64_t>(v[i]));
}

void
ByteWriter::putU64Vector(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    flush();
    char *out = extend(8 * v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        storeLe<8>(out + 8 * i, v[i]);
}

bool
ByteReader::fail(std::size_t n, const char *what)
{
    if (st.isOk()) {
        st = Status::error(ErrorKind::ParseError, 0, "truncated record: ",
                           what, " needs ", n, " bytes, ",
                           in.size() - pos, " remain at offset ", pos);
    }
    return false;
}

std::string
ByteReader::readString()
{
    const std::uint64_t len = readU64();
    // The length prefix is untrusted: cap it by the bytes actually
    // present before allocating.
    if (st.isOk() && len > in.size() - pos) {
        st = Status::error(ErrorKind::ParseError, 0, "string length ",
                           len, " exceeds the ", in.size() - pos,
                           " bytes remaining at offset ", pos);
    }
    if (!need(static_cast<std::size_t>(len), "string body"))
        return {};
    std::string s(in.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
    return s;
}

std::uint64_t
ByteReader::readCount8(const char *what)
{
    const std::uint64_t count = readU64();
    if (st.isOk() && count > (in.size() - pos) / 8) {
        st = Status::error(ErrorKind::ParseError, 0, "vector count ",
                           count, " exceeds the ", (in.size() - pos) / 8,
                           " ", what, " remaining at offset ", pos);
    }
    return st.isOk() ? count : 0;
}

std::vector<double>
ByteReader::readF64Vector()
{
    std::vector<double> v(static_cast<std::size_t>(readCount8("doubles")));
    const char *p = in.data() + pos;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = std::bit_cast<double>(loadLe<8>(p + 8 * i));
    pos += 8 * v.size();
    return v;
}

std::vector<std::uint64_t>
ByteReader::readU64Vector()
{
    std::vector<std::uint64_t> v(
        static_cast<std::size_t>(readCount8("words")));
    const char *p = in.data() + pos;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = loadLe<8>(p + 8 * i);
    pos += 8 * v.size();
    return v;
}

void
ByteReader::expectEnd()
{
    if (st.isOk() && pos != in.size()) {
        st = Status::error(ErrorKind::ParseError, 0, remaining(),
                           " unexpected trailing bytes after a "
                           "complete record");
    }
}

void
ByteReader::latch(Status failure)
{
    if (st.isOk())
        st = std::move(failure);
}

void
FieldReader::field(int &v)
{
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    const std::uint64_t raw = readU64();
    if (raw > kMax)
        latch(Status::error(ErrorKind::SemanticError, 0, "count ",
                            static_cast<std::int64_t>(raw),
                            " is outside [0, ", kMax, "]"));
    v = static_cast<int>(std::min(raw, kMax));
}

void
FieldReader::field(std::vector<char> &v)
{
    const std::string bytes = readString();
    v.assign(bytes.begin(), bytes.end());
}

} // namespace amdahl
