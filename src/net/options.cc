#include "net/options.hh"

#include <charconv>
#include <cmath>

namespace amdahl::net {
namespace {

/** Parse an unsigned integer occupying the whole of @p text. */
bool
parseU64(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last;
}

} // namespace

Status
validateShardedOptions(const ShardedOptions &opts)
{
    const auto bad = [](auto &&...parts) {
        return Status::error(ErrorKind::DomainError, 0,
                             std::forward<decltype(parts)>(parts)...);
    };
    if (opts.shards > kMaxShards)
        return bad("--shards must be at most ", kMaxShards, ", got ",
                   opts.shards);
    if (opts.barrierDeadline == 0)
        return bad("--barrier-deadline must be positive");
    if (!(opts.quorumFloor > 0.0) || opts.quorumFloor > 1.0 ||
        !std::isfinite(opts.quorumFloor))
        return bad("--quorum must be in (0, 1], got ", opts.quorumFloor);
    const NetFaultOptions &f = opts.faults;
    if (!(f.lossRate >= 0.0) || f.lossRate >= 1.0 ||
        !std::isfinite(f.lossRate))
        return bad("--net-loss must be in [0, 1), got ", f.lossRate);
    if (!(f.duplicationRate >= 0.0) || f.duplicationRate >= 1.0 ||
        !std::isfinite(f.duplicationRate))
        return bad("net duplication rate must be in [0, 1), got ",
                   f.duplicationRate);
    if (f.delayMin > f.delayMax)
        return bad("--net-delay min ", f.delayMin,
                   " exceeds max ", f.delayMax);
    for (const PartitionWindow &w : opts.partitions) {
        if (opts.shards > 0 && w.shard >= opts.shards)
            return bad("--net-partition shard ", w.shard,
                       " out of range for ", opts.shards, " shard(s)");
        if (w.toRound <= w.fromRound)
            return bad("--net-partition window [", w.fromRound, ", ",
                       w.toRound, ") is empty");
    }
    return Status::ok();
}

Result<PartitionWindow>
parsePartitionWindow(std::string_view spec)
{
    const auto first = spec.find(':');
    const auto second =
        first == std::string_view::npos ? first : spec.find(':', first + 1);
    std::uint64_t shard = 0;
    PartitionWindow window;
    if (second == std::string_view::npos ||
        !parseU64(spec.substr(0, first), shard) ||
        !parseU64(spec.substr(first + 1, second - first - 1),
                  window.fromRound) ||
        !parseU64(spec.substr(second + 1), window.toRound)) {
        return Status::error(ErrorKind::ParseError, 0,
                             "--net-partition expects shard:from:to, got \"",
                             spec, "\"");
    }
    window.shard = static_cast<std::size_t>(shard);
    if (window.toRound <= window.fromRound)
        return Status::error(ErrorKind::DomainError, 0,
                             "--net-partition window [", window.fromRound,
                             ", ", window.toRound, ") is empty");
    return window;
}

Status
parseDelaySpec(std::string_view spec, NetFaultOptions &faults)
{
    const auto colon = spec.find(':');
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (colon == std::string_view::npos) {
        if (!parseU64(spec, hi))
            return Status::error(ErrorKind::ParseError, 0,
                                 "--net-delay expects ticks or min:max, "
                                 "got \"", spec, "\"");
    } else if (!parseU64(spec.substr(0, colon), lo) ||
               !parseU64(spec.substr(colon + 1), hi)) {
        return Status::error(ErrorKind::ParseError, 0,
                             "--net-delay expects ticks or min:max, got \"",
                             spec, "\"");
    }
    if (lo > hi)
        return Status::error(ErrorKind::DomainError, 0, "--net-delay min ",
                             lo, " exceeds max ", hi);
    faults.delayMin = lo;
    faults.delayMax = hi;
    return Status::ok();
}

} // namespace amdahl::net
