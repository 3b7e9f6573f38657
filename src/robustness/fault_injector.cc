#include "fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace amdahl::robustness {

namespace {

/** Publish the drawn schedule: each outage becomes one trace event,
 *  so a post-mortem can line crash epochs up against slow clearings. */
void
recordSchedule(const std::vector<CrashEvent> &events)
{
    obs::metrics()
        .counter("faults.scheduled_crashes")
        .add(events.size());
    if (auto *sink = obs::traceSink()) {
        for (const auto &event : events) {
            obs::TraceEvent(*sink, "fault_schedule")
                .field("server", event.server)
                .field("crash_epoch", event.crashEpoch)
                .field("recover_epoch", event.recoverEpoch);
        }
    }
}

} // namespace

void
validateFaultOptions(const FaultOptions &opts)
{
    // Each check negates the valid range, so NaN fails it too.
    if (!(opts.crashRatePerServerEpoch >= 0.0 &&
          opts.crashRatePerServerEpoch <= 1.0)) {
        fatal("crash rate must be in [0, 1], got ",
              opts.crashRatePerServerEpoch);
    }
    if (opts.downEpochs < 1)
        fatal("downEpochs must be >= 1, got ", opts.downEpochs);
    if (opts.checkpointEpochs < 1)
        fatal("checkpointEpochs must be >= 1, got ",
              opts.checkpointEpochs);
    if (!(opts.bidLossRate >= 0.0 && opts.bidLossRate <= 1.0))
        fatal("bid loss rate must be in [0, 1], got ",
              opts.bidLossRate);
    for (const auto &event : opts.scriptedCrashes) {
        if (event.recoverEpoch <= event.crashEpoch) {
            fatal("scripted crash of server ", event.server,
                  " recovers at epoch ", event.recoverEpoch,
                  " which is not after its crash epoch ",
                  event.crashEpoch);
        }
    }
}

FaultInjector::FaultInjector(FaultOptions opts, std::size_t servers,
                             int epochs)
    : opts_(std::move(opts)), servers_(servers)
{
    validateFaultOptions(opts_);
    if (servers_ == 0)
        fatal("fault injector needs at least one server");
    if (!opts_.enabled)
        return;

    if (!opts_.scriptedCrashes.empty()) {
        events = opts_.scriptedCrashes;
        std::sort(events.begin(), events.end(),
                  [](const CrashEvent &a, const CrashEvent &b) {
                      return a.crashEpoch < b.crashEpoch;
                  });
        // Per-server outages must not overlap: a down server cannot
        // crash again.
        std::vector<int> down_until(servers_, 0);
        for (const auto &event : events) {
            if (event.server >= servers_) {
                fatal("scripted crash names server ", event.server,
                      " but the cluster has ", servers_);
            }
            if (event.crashEpoch < down_until[event.server]) {
                fatal("scripted crashes of server ", event.server,
                      " overlap at epoch ", event.crashEpoch);
            }
            down_until[event.server] = event.recoverEpoch;
        }
        recordSchedule(events);
        return;
    }

    if (opts_.crashRatePerServerEpoch <= 0.0)
        return;
    Rng rng(opts_.seed);
    std::vector<int> down_until(servers_, 0);
    for (int epoch = 0; epoch < epochs; ++epoch) {
        for (std::size_t j = 0; j < servers_; ++j) {
            if (epoch < down_until[j])
                continue; // Already down; cannot crash again.
            if (!rng.bernoulli(opts_.crashRatePerServerEpoch))
                continue;
            CrashEvent event;
            event.server = j;
            event.crashEpoch = epoch;
            event.recoverEpoch = epoch + opts_.downEpochs + 1;
            down_until[j] = event.recoverEpoch;
            events.push_back(event);
        }
    }
    recordSchedule(events);
}

std::vector<std::size_t>
FaultInjector::crashesDuring(int epoch) const
{
    std::vector<std::size_t> crashed;
    for (const auto &event : events) {
        if (event.crashEpoch == epoch)
            crashed.push_back(event.server);
    }
    return crashed;
}

std::vector<std::size_t>
FaultInjector::recoveriesAt(int epoch) const
{
    std::vector<std::size_t> recovered;
    for (const auto &event : events) {
        if (event.recoverEpoch == epoch)
            recovered.push_back(event.server);
    }
    return recovered;
}

std::uint64_t
FaultInjector::bidSeed(int epoch) const
{
    SplitMix64 mixer(opts_.seed ^
                     (0x94d049bb133111ebULL *
                      (static_cast<std::uint64_t>(epoch) + 1)));
    return mixer.next();
}

} // namespace amdahl::robustness
