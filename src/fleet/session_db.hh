/**
 * @file
 * SessionDb: the dense per-client session table.
 *
 * A fleet run admits clients 1..N once, in id order, before its first
 * event, and releases none while the run is live — so the table is a
 * vector indexed by id - 1. The hot path looks a session up on every
 * frame event, and find() is a bounds check. admit() appends the next
 * id (admission out of order is fatal), so iteration in storage order
 * is iteration in id order: every report sum over sessions has a
 * fixed order.
 *
 * After the run, expireIdle() releases sessions whose lastActiveS
 * fell behind a horizon: a released session drops its cache handles
 * and stats, find() no longer returns it and forEach() skips it.
 * Released slots are not reused and survivors never move.
 *
 * The table is externally synchronized: the fleet engine mutates it
 * only from its (deterministic, single-threaded) event loop, and
 * read-only aggregation after a run needs no locks.
 */

#ifndef REDEYE_FLEET_SESSION_DB_HH
#define REDEYE_FLEET_SESSION_DB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/function_ref.hh"
#include "fleet/session.hh"

namespace redeye {
namespace fleet {

/** Dense table of admitted sessions, indexed by id - 1. */
class SessionDb
{
  public:
    /** @param expected Sessions the run will admit: admitting up to
     * this many never reallocates, so their pointers stay valid. */
    explicit SessionDb(std::size_t expected = 0);

    /**
     * Admit @p session, whose id must be the next one (1 for the
     * first admission, then one more than the last). Returns the
     * stored session.
     */
    Session &admit(Session session);

    /** Session with @p id, or nullptr when never admitted or
     * released. */
    Session *find(std::uint64_t id);
    const Session *find(std::uint64_t id) const;

    /**
     * Release every session with lastActiveS <= now_s - idle_s.
     * Returns the number of sessions released.
     */
    std::size_t expireIdle(double idle_s, double now_s);

    /** Visit every live session in id order. */
    void forEach(FunctionRef<void(const Session &)> fn) const;

    /** Live (admitted and not released) sessions. */
    std::size_t size() const { return live_; }

  private:
    /** Slot i holds session i + 1; a released slot has id 0. */
    std::vector<Session> sessions_;
    std::size_t live_ = 0;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_SESSION_DB_HH
