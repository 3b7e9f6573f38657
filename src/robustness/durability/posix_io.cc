#include "robustness/durability/posix_io.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace amdahl::durability {

namespace {

/** @return "<what>: <errno message>" as an IoError. */
Status
errnoStatus(const char *what, int err)
{
    return Status::error(ErrorKind::IoError, 0, what, ": ",
                         std::strerror(err));
}

} // namespace

Status
IoContext::run(std::string_view what, const std::function<Status()> &op)
{
    const std::uint64_t opId = faults.nextOpId();
    const int maxRetries = faults.options().maxRetries;
    Status last = Status::ok();
    for (int attempt = 0; attempt < maxRetries; ++attempt) {
        if (attempt > 0)
            ++counters_->ioRetries;
        if (faults.injectFailure(opId,
                                 static_cast<std::uint64_t>(attempt))) {
            ++counters_->injectedFaults;
            last = Status::error(ErrorKind::IoError, 0, what,
                                 ": injected transient fault (op ",
                                 opId, ", attempt ", attempt, ")");
            continue;
        }
        last = op();
        if (last.isOk())
            return last;
    }
    return last;
}

PosixFile::~PosixFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

PosixFile::PosixFile(PosixFile &&other) noexcept
    : fd_(std::exchange(other.fd_, -1))
{}

PosixFile &
PosixFile::operator=(PosixFile &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

Result<PosixFile>
PosixFile::openAppend(const std::string &path)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (fd < 0)
        return errnoStatus(("open for append: " + path).c_str(), errno);
    return PosixFile(fd);
}

Result<PosixFile>
PosixFile::createTruncate(const std::string &path)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (fd < 0)
        return errnoStatus(("create: " + path).c_str(), errno);
    return PosixFile(fd);
}

Status
PosixFile::writeAll(const void *data, std::size_t size)
{
    const auto *p = static_cast<const char *>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd_, p + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("write", errno);
        }
        done += static_cast<std::size_t>(n);
    }
    return Status::ok();
}

Status
PosixFile::sync()
{
    if (::fsync(fd_) != 0)
        return errnoStatus("fsync", errno);
    return Status::ok();
}

Status
PosixFile::truncate(std::uint64_t size)
{
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0)
        return errnoStatus("ftruncate", errno);
    if (::lseek(fd_, 0, SEEK_END) < 0)
        return errnoStatus("lseek", errno);
    return Status::ok();
}

Result<std::uint64_t>
PosixFile::size() const
{
    struct stat sb = {};
    if (::fstat(fd_, &sb) != 0)
        return errnoStatus("fstat", errno);
    return static_cast<std::uint64_t>(sb.st_size);
}

Status
PosixFile::close()
{
    if (fd_ < 0)
        return Status::ok();
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0)
        return errnoStatus("close", errno);
    return Status::ok();
}

Status
renameFile(const std::string &from, const std::string &to)
{
    if (::rename(from.c_str(), to.c_str()) != 0)
        return errnoStatus(("rename " + from + " -> " + to).c_str(),
                           errno);
    return Status::ok();
}

Status
removeFile(const std::string &path)
{
    if (::unlink(path.c_str()) != 0 && errno != ENOENT)
        return errnoStatus(("unlink " + path).c_str(), errno);
    return Status::ok();
}

Status
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return errnoStatus(("open dir: " + dir).c_str(), errno);
    Status st = Status::ok();
    if (::fsync(fd) != 0)
        st = errnoStatus(("fsync dir: " + dir).c_str(), errno);
    ::close(fd);
    return st;
}

Result<std::string>
readFileBytes(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errnoStatus(("open: " + path).c_str(), errno);
    std::string out;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const Status st = errnoStatus(("read: " + path).c_str(),
                                          errno);
            ::close(fd);
            return st;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

} // namespace amdahl::durability
