/** @file Tests for the dense session table. */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/session_db.hh"

namespace redeye {
namespace fleet {
namespace {

Session
makeSession(std::uint64_t id, double last_active = 0.0)
{
    Session s;
    s.id = id;
    s.lastActiveS = last_active;
    return s;
}

TEST(SessionDbTest, AdmitAppendsAndFindChecksBounds)
{
    SessionDb db(8);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.find(1), nullptr);

    Session &s = db.admit(makeSession(1));
    EXPECT_EQ(s.id, 1u);
    EXPECT_EQ(db.admit(makeSession(2)).id, 2u);
    EXPECT_EQ(db.size(), 2u);
    EXPECT_EQ(db.find(1), &s);
    EXPECT_EQ(db.find(2)->id, 2u);
    EXPECT_EQ(db.find(0), nullptr);
    EXPECT_EQ(db.find(3), nullptr);

    const SessionDb &cdb = db;
    EXPECT_EQ(cdb.find(1), &s);
}

TEST(SessionDbTest, RejectsOutOfOrderAdmission)
{
    SessionDb db;
    EXPECT_EXIT(db.admit(makeSession(2)), ::testing::ExitedWithCode(1),
                "out of order");
    db.admit(makeSession(1));
    EXPECT_EXIT(db.admit(makeSession(1)), ::testing::ExitedWithCode(1),
                "out of order");
    EXPECT_EXIT(db.admit(makeSession(0)), ::testing::ExitedWithCode(1),
                "out of order");
}

TEST(SessionDbTest, PointersStableAcrossChurn)
{
    SessionDb db(64);
    std::vector<Session *> stored;
    for (std::uint64_t id = 1; id <= 64; ++id)
        stored.push_back(&db.admit(makeSession(id, id % 2 ? 1.0 : 9.0)));

    // Expire the odd ids; survivors must not move.
    EXPECT_EQ(db.expireIdle(5.0, 10.0), 32u);
    for (std::uint64_t id = 1; id <= 64; ++id) {
        Session *found = db.find(id);
        if (id % 2) {
            EXPECT_EQ(found, nullptr) << "session " << id;
            continue;
        }
        EXPECT_EQ(found, stored[id - 1]) << "session " << id << " moved";
        EXPECT_EQ(found->id, id);
    }
}

TEST(SessionDbTest, ExpireIdleSweepsOnlyStale)
{
    SessionDb db(8);
    db.admit(makeSession(1, /*last_active=*/1.0));
    db.admit(makeSession(2, /*last_active=*/5.0));
    db.admit(makeSession(3, /*last_active=*/9.5));

    // Idle horizon 5 s at t=10: sessions last active at/before t=5
    // expire.
    EXPECT_EQ(db.expireIdle(5.0, 10.0), 2u);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.find(1), nullptr);
    EXPECT_EQ(db.find(2), nullptr);
    EXPECT_NE(db.find(3), nullptr);
    // Released sessions stay released.
    EXPECT_EQ(db.expireIdle(5.0, 10.0), 0u);
    EXPECT_EQ(db.size(), 1u);
}

TEST(SessionDbTest, ForEachVisitsExactlyTheLive)
{
    SessionDb db(16);
    for (std::uint64_t id = 1; id <= 10; ++id)
        db.admit(makeSession(id, id == 3 || id == 7 ? 0.0 : 1.0));
    EXPECT_EQ(db.expireIdle(0.5, 1.0), 2u);

    // Live sessions only, in id order.
    std::vector<std::uint64_t> visited;
    db.forEach([&](const Session &s) { visited.push_back(s.id); });
    EXPECT_EQ(visited,
              (std::vector<std::uint64_t>{1, 2, 4, 5, 6, 8, 9, 10}));
}

TEST(SessionDbTest, EvictionReleasesCacheHandles)
{
    SessionDb db(4);
    Session s = makeSession(1);
    auto program = std::make_shared<const arch::Program>();
    s.program = program;
    db.admit(std::move(s));
    EXPECT_EQ(program.use_count(), 2);
    // Expiry evicts the session: the table drops its handle then,
    // not at destruction.
    EXPECT_EQ(db.expireIdle(1.0, 1.0), 1u);
    EXPECT_EQ(program.use_count(), 1);
}

} // namespace
} // namespace fleet
} // namespace redeye
