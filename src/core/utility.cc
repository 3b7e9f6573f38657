#include "utility.hh"

#include "common/logging.hh"
#include "core/amdahl.hh"

namespace amdahl::core {

AmdahlUtility::AmdahlUtility(std::vector<UtilityTerm> terms)
    : terms_(std::move(terms))
{
    if (terms_.empty())
        fatal("Amdahl utility needs at least one job");
    for (std::size_t j = 0; j < terms_.size(); ++j) {
        const auto &term = terms_[j];
        if (term.parallelFraction < 0.0 || term.parallelFraction > 1.0) {
            fatal("job ", j, ": parallel fraction ", term.parallelFraction,
                  " outside [0, 1]");
        }
        if (term.weight <= 0.0)
            fatal("job ", j, ": weight must be positive, got ",
                  term.weight);
        weightSum += term.weight;
    }
}

const UtilityTerm &
AmdahlUtility::term(std::size_t j) const
{
    if (j >= terms_.size())
        fatal("job index ", j, " out of range (", terms_.size(), ")");
    return terms_[j];
}

double
AmdahlUtility::value(const std::vector<double> &x) const
{
    if (x.size() != terms_.size()) {
        fatal("allocation has ", x.size(), " entries, expected ",
              terms_.size());
    }
    double total = 0.0;
    for (std::size_t j = 0; j < terms_.size(); ++j)
        total += jobUtility(j, x[j]);
    return total / weightSum;
}

double
AmdahlUtility::jobUtility(std::size_t j, double x) const
{
    const auto &t = term(j);
    return t.weight * amdahlSpeedup(t.parallelFraction, x);
}

double
AmdahlUtility::jobMarginal(std::size_t j, double x) const
{
    const auto &t = term(j);
    return t.weight * amdahlSpeedupDerivative(t.parallelFraction, x);
}

std::vector<double>
AmdahlUtility::gradient(const std::vector<double> &x) const
{
    if (x.size() != terms_.size()) {
        fatal("allocation has ", x.size(), " entries, expected ",
              terms_.size());
    }
    std::vector<double> grad(terms_.size());
    for (std::size_t j = 0; j < terms_.size(); ++j)
        grad[j] = jobMarginal(j, x[j]) / weightSum;
    return grad;
}

} // namespace amdahl::core
