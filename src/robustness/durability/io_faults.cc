#include "robustness/durability/io_faults.hh"

#include <cmath>

#include "common/random.hh"

namespace amdahl::durability {

Status
validateIoFaultOptions(const IoFaultOptions &opts)
{
    if (!std::isfinite(opts.failureRate) || opts.failureRate < 0.0 ||
        opts.failureRate >= 1.0)
        return Status::error(ErrorKind::DomainError, 0,
                             "io fault rate must be in [0, 1), got ",
                             opts.failureRate);
    if (opts.maxRetries < 1)
        return Status::error(ErrorKind::DomainError, 0,
                             "io max retries must be >= 1, got ",
                             opts.maxRetries);
    return Status::ok();
}

bool
IoFaultInjector::injectFailure(std::uint64_t opId,
                               std::uint64_t attempt) const
{
    return counterBernoulli(opts_.seed, opId, attempt, opts_.failureRate);
}

std::uint64_t
IoFaultInjector::backoffUnits(std::uint64_t opId,
                              std::uint64_t attempt) const
{
    // Exponential base with full jitter, all in virtual units. The
    // jitter substream is decorrelated from the failure substream by
    // flipping the seed.
    const std::uint64_t base = std::uint64_t{1} << (attempt < 20 ? attempt
                                                                 : 20);
    const std::uint64_t bits =
        mix64(substreamSeed(~opts_.seed, opId, attempt));
    const double jitter = counterUniform(bits);
    return base + static_cast<std::uint64_t>(
                      jitter * static_cast<double>(base));
}

} // namespace amdahl::durability
