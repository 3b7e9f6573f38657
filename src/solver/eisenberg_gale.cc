#include "eisenberg_gale.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hh"
#include "common/invariants.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"

namespace amdahl::solver {

std::vector<double>
projectOntoSimplex(const std::vector<double> &v, double total,
                   double floor)
{
    const std::size_t n = v.size();
    if (n == 0)
        fatal("cannot project an empty vector");
    const double mass = total - floor * static_cast<double>(n);
    if (mass < 0.0)
        fatal("simplex floor exceeds the total");

    // Project (v - floor) onto the standard simplex of size `mass`.
    std::vector<double> shifted(n);
    for (std::size_t k = 0; k < n; ++k)
        shifted[k] = v[k] - floor;

    std::vector<double> sorted(shifted);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    double cumulative = 0.0;
    double theta = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        cumulative += sorted[k];
        const double candidate =
            (cumulative - mass) / static_cast<double>(k + 1);
        if (k + 1 == n || sorted[k + 1] <= candidate) {
            // Check the KKT condition for this support size.
            if (sorted[k] > candidate) {
                theta = candidate;
                break;
            }
        }
        theta = candidate;
    }

    std::vector<double> result(n);
    for (std::size_t k = 0; k < n; ++k) {
        result[k] = std::max(0.0, shifted[k] - theta) + floor;
        AMDAHL_CHECK_FINITE(result[k]);
    }
    // Contract: the projection lands on the simplex — coordinates at
    // or above the floor, summing to the requested total.
    if constexpr (checkedBuild) {
        double sum = 0.0;
        for (double r : result) {
            AMDAHL_ASSERT(r >= floor - 1e-12 * std::abs(total),
                          "projected coordinate ", r,
                          " fell below the simplex floor ", floor);
            sum += r;
        }
        AMDAHL_ASSERT(std::abs(sum - total) <=
                          1e-9 * std::max(1.0, std::abs(total)),
                      "simplex projection sums to ", sum,
                      " instead of ", total);
    }
    return result;
}

EgResult
solveEisenbergGale(const std::vector<double> &capacities,
                   const std::vector<EgUser> &users,
                   const EgOptions &opts)
{
    obs::ScopedTimer solve_timer(
        obs::timeHistogram("time.solver.eisenberg_gale_us"));
    if (capacities.empty())
        fatal("Eisenberg-Gale needs servers");
    if (users.empty())
        fatal("Eisenberg-Gale needs users");
    const std::size_t m = capacities.size();

    // Per-server job registry.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        on_server(m);
    for (std::size_t i = 0; i < users.size(); ++i) {
        if (users[i].budget <= 0.0)
            fatal("user ", i, " has non-positive budget");
        if (users[i].servers.empty())
            fatal("user ", i, " has no jobs");
        if (!users[i].utility || !users[i].gradient)
            fatal("user ", i, " lacks utility callbacks");
        for (std::size_t k = 0; k < users[i].servers.size(); ++k) {
            const std::size_t j = users[i].servers[k];
            if (j >= m)
                fatal("user ", i, " job on unknown server ", j);
            on_server[j].emplace_back(i, k);
        }
    }
    for (std::size_t j = 0; j < m; ++j) {
        if (on_server[j].empty())
            fatal("server ", j, " hosts no jobs");
        if (capacities[j] <= 0.0)
            fatal("server ", j, " has non-positive capacity");
    }

    // Start from even splits.
    EgResult result;
    result.allocation.resize(users.size());
    for (std::size_t i = 0; i < users.size(); ++i)
        result.allocation[i].assign(users[i].servers.size(), 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        const double share =
            capacities[j] / static_cast<double>(on_server[j].size());
        for (const auto &[i, k] : on_server[j])
            result.allocation[i][k] = share;
    }

    auto objective = [&](const std::vector<std::vector<double>> &x) {
        double phi = 0.0;
        for (std::size_t i = 0; i < users.size(); ++i) {
            const double u = users[i].utility(x[i]);
            if (u <= 0.0)
                return -std::numeric_limits<double>::infinity();
            phi += users[i].budget * std::log(u);
        }
        return phi;
    };

    double phi = objective(result.allocation);
    double step = 1.0; // Grows on an accepted step, halves on a rejected one.
    int stall = 0;
    auto trial = result.allocation;
    for (int it = 0; it < opts.maxIterations; ++it) {
        result.iterations = it + 1;

        // Gradient of the EG objective: b_i * du_i/dx_ik / u_i.
        std::vector<std::vector<double>> grad(users.size());
        for (std::size_t i = 0; i < users.size(); ++i) {
            const double u = users[i].utility(result.allocation[i]);
            grad[i] = users[i].gradient(result.allocation[i]);
            for (double &g : grad[i])
                g *= users[i].budget / u;
        }

        // Backtracking projected ascent step.
        bool moved = false;
        for (int bt = 0; bt < 40; ++bt) {
            for (std::size_t i = 0; i < users.size(); ++i) {
                for (std::size_t k = 0;
                     k < result.allocation[i].size(); ++k) {
                    trial[i][k] = result.allocation[i][k] +
                                  step * grad[i][k];
                }
            }
            // Re-impose per-server clearing.
            for (std::size_t j = 0; j < m; ++j) {
                std::vector<double> shares;
                shares.reserve(on_server[j].size());
                for (const auto &[i, k] : on_server[j])
                    shares.push_back(trial[i][k]);
                const auto projected = projectOntoSimplex(
                    shares, capacities[j], 1e-9 * capacities[j]);
                for (std::size_t s = 0; s < on_server[j].size(); ++s) {
                    const auto &[i, k] = on_server[j][s];
                    trial[i][k] = projected[s];
                }
            }
            const double phi_trial = objective(trial);
            if (phi_trial > phi) {
                std::swap(result.allocation, trial);
                const double gain = phi_trial - phi;
                phi = phi_trial;
                step *= 1.25;
                moved = true;
                stall = gain < opts.tolerance *
                                   (std::abs(phi) + 1e-12)
                            ? stall + 1
                            : 0;
                break;
            }
            step *= 0.5;
        }
        if (!moved || stall >= 5) {
            result.converged = true;
            break;
        }
    }
    result.objective = phi;
    AMDAHL_CHECK_FINITE(result.objective);

    obs::metrics().counter("solver.eg.solves").add();
    obs::metrics()
        .counter("solver.eg.iterations")
        .add(static_cast<std::uint64_t>(result.iterations));
    if (!result.converged)
        obs::metrics().counter("solver.eg.non_converged").add();

    // Contract: the ascent never leaves the feasible polytope — every
    // server's allocation clears its capacity (the per-server simplex
    // projection re-imposes this each step).
    if constexpr (checkedBuild) {
        std::vector<double> loads(m, 0.0);
        for (std::size_t i = 0; i < users.size(); ++i) {
            for (std::size_t k = 0; k < users[i].servers.size(); ++k)
                loads[users[i].servers[k]] += result.allocation[i][k];
        }
        invariants::CheckAllocationFeasible(
            loads, capacities, 1e-6, "eisenberg-gale allocation");
    }

    // Recover prices as the duals: p_j = b_i u_i'/u_i for interior
    // coordinates, averaged across the server's interior jobs.
    result.prices.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        double sum = 0.0;
        int count = 0;
        for (const auto &[i, k] : on_server[j]) {
            if (result.allocation[i][k] <
                1e-4 * capacities[j]) {
                continue; // corner: dual inequality, not equality
            }
            const double u =
                users[i].utility(result.allocation[i]);
            const auto grad = users[i].gradient(result.allocation[i]);
            sum += users[i].budget * grad[k] / u;
            ++count;
        }
        result.prices[j] =
            count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    return result;
}

} // namespace amdahl::solver
