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

} // namespace amdahl::durability
