#include "fleet/session_db.hh"

#include "core/logging.hh"

namespace redeye {
namespace fleet {

SessionDb::SessionDb(std::size_t expected)
{
    sessions_.reserve(expected);
}

Session &
SessionDb::admit(Session session)
{
    fatal_if(session.id != sessions_.size() + 1, "admitting session ",
             session.id, " out of order: the next id is ",
             sessions_.size() + 1);
    sessions_.push_back(std::move(session));
    ++live_;
    return sessions_.back();
}

Session *
SessionDb::find(std::uint64_t id)
{
    if (id == 0 || id > sessions_.size())
        return nullptr;
    Session &s = sessions_[id - 1];
    return s.id == id ? &s : nullptr;
}

const Session *
SessionDb::find(std::uint64_t id) const
{
    return const_cast<SessionDb *>(this)->find(id);
}

std::size_t
SessionDb::expireIdle(double idle_s, double now_s)
{
    const double horizon = now_s - idle_s;
    std::size_t expired = 0;
    for (Session &s : sessions_) {
        if (s.id != 0 && s.lastActiveS <= horizon) {
            s = Session{}; // drop cache handles and stats
            ++expired;
        }
    }
    live_ -= expired;
    return expired;
}

void
SessionDb::forEach(FunctionRef<void(const Session &)> fn) const
{
    for (const Session &s : sessions_) {
        if (s.id != 0)
            fn(s);
    }
}

} // namespace fleet
} // namespace redeye
