#include "robustness/durability/kill_points.hh"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace amdahl::durability {

namespace {

/** Armed-point state; function-local so lint's CONC-global scope
 *  (namespace-level mutables) stays clean. The durability pipeline is
 *  driven from the simulator thread only. */
struct Armed
{
    std::string site;          //!< Empty = disarmed.
    std::uint64_t occurrence = 1;
    std::uint64_t hits = 0;
};

Armed &
armed()
{
    static Armed a;
    return a;
}

} // namespace

const std::vector<std::string_view> &
killPointCatalog()
{
    // Pipeline order: the commit protocol in DESIGN.md §13 walks these
    // top to bottom each epoch.
    static const std::vector<std::string_view> catalog{
        "epoch.pre_commit",     // before any durable work this epoch
        "journal.pre_append",   // record encoded, nothing written
        "journal.mid_append",   // half the record bytes on disk (torn)
        "journal.post_append",  // record written + fsynced
        "segment.mid_append",   // half the new segment records on disk
        "segment.pre_sync",     // segment records written, not fsynced
        "snapshot.pre_write",   // snapshot encoded, temp not created
        "snapshot.mid_write",   // half the temp file on disk (torn)
        "snapshot.pre_rename",  // temp complete + fsynced, not renamed
        "snapshot.post_rename", // renamed, directory not yet fsynced
        "epoch.post_commit",    // everything durable for this epoch
    };
    return catalog;
}

Status
armKillPoint(std::string_view spec)
{
    std::string_view site = spec;
    std::uint64_t occurrence = 1;
    if (const auto colon = spec.rfind(':');
        colon != std::string_view::npos) {
        site = spec.substr(0, colon);
        const std::string_view n = spec.substr(colon + 1);
        // from_chars refuses a sign and reports overflow, so a count
        // past 2^64 - 1 is refused instead of wrapping onto a small one.
        const auto [end, ec] =
            std::from_chars(n.data(), n.data() + n.size(), occurrence);
        if (ec != std::errc() || end != n.data() + n.size() ||
            occurrence == 0)
            return Status::error(ErrorKind::DomainError, 0,
                                 "kill-point occurrence `", n,
                                 "` is not a positive integer");
    }
    const auto &catalog = killPointCatalog();
    bool known = false;
    for (const std::string_view s : catalog)
        known = known || s == site;
    if (!known)
        return Status::error(ErrorKind::DomainError, 0,
                             "unknown kill point `", site,
                             "`; see --list-kill-points");
    armed() = Armed{std::string(site), occurrence, 0};
    return Status::ok();
}

void
killPoint(std::string_view site)
{
    Armed &a = armed();
    if (a.site.empty() || a.site != site)
        return;
    if (++a.hits == a.occurrence) {
        // Hard exit: no flushes, no destructors — a simulated crash.
        std::_Exit(kKillExitCode);
    }
}

} // namespace amdahl::durability
