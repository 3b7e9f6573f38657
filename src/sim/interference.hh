/**
 * @file
 * Colocation interference model (Section VI-E).
 *
 * Workloads are profiled in isolation, but real systems colocate jobs
 * that compete for shared cache and memory, degrading performance by
 * 5-15% (the paper cites [41]). Isolation profiles therefore
 * over-estimate the effective parallel fraction. This model provides
 * both views used in the paper's sensitivity study:
 *
 *  - a simulator-level slowdown derived from colocated core pressure
 *    (fed into TaskSimulator::setInterferenceSlowdown), and
 *  - the direct parallel-fraction reduction the paper applies when
 *    generating Figure 12.
 */

#ifndef AMDAHL_SIM_INTERFERENCE_HH
#define AMDAHL_SIM_INTERFERENCE_HH

#include "sim/server.hh"

namespace amdahl::sim {

/**
 * Shared-resource contention on a chip multiprocessor.
 */
class InterferenceModel
{
  public:
    /**
     * @param max_degradation Peak fractional slowdown when the rest of
     *                        the server is fully occupied by co-runners
     *                        (default 15%, the top of the paper's range).
     */
    explicit InterferenceModel(double max_degradation = 0.15);

    /**
     * Slowdown factor (>= 1) experienced by a job.
     *
     * Degradation scales with the share of the server's cores held by
     * co-runners: an otherwise idle server yields 1.0; a server whose
     * remaining cores are all busy yields 1 + max_degradation.
     *
     * @param own_cores       Cores held by the job itself.
     * @param colocated_cores Cores held by co-runners on the server.
     * @param server          The server both run on.
     */
    double slowdown(int own_cores, int colocated_cores,
                    const ServerConfig &server) const;

    /**
     * The effective parallel fraction under a given slowdown.
     *
     * If contention multiplies parallel-phase time by the slowdown k,
     * the speedup curve behaves as if the parallel fraction shrank:
     * f_eff = k f / (k f + (1 - f) ... ) reduces (for the paper's
     * first-order treatment) to a simple relative reduction. The paper
     * applies the reduction directly; so do we.
     *
     * @param fraction        Isolated-profile parallel fraction in [0,1].
     * @param reduction_pct   Relative reduction in percent (e.g. 10 for
     *                        a 10% cut).
     * @return fraction * (1 - reduction_pct / 100), floored at 0.
     */
    static double reduceParallelFraction(double fraction,
                                         double reduction_pct);

  private:
    double maxDegradation_;
};

} // namespace amdahl::sim

#endif // AMDAHL_SIM_INTERFERENCE_HH
