#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/app_mux.hpp"
#include "apps/kv_store.hpp"
#include "apps/multicast.hpp"
#include "apps/sharded_web_cache.hpp"
#include "net/transit_stub.hpp"
#include "overlay/driver.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::OverlayDriver;

struct AppFixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<OverlayDriver> driver;

  explicit AppFixture(std::uint64_t seed, int nodes) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    driver = std::make_unique<OverlayDriver>(topo, net::NetworkConfig{}, cfg);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(2));
  }

  net::Address random_node() {
    return driver->oracle().random_active(driver->rng())->second;
  }
};

// --- KV store (PAST-like) ---------------------------------------------------

TEST(KvStore, PutThenGetRoundTrip) {
  AppFixture f(61, 30);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver);
  mux.attach(kv);

  bool put_ok = false;
  kv.put(f.random_node(), "hello", "world", [&](bool ok) { put_ok = ok; });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(put_ok);

  std::string got;
  bool found = false;
  kv.get(f.random_node(), "hello", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "world");
  EXPECT_EQ(kv.stats().get_hits, 1u);
}

TEST(KvStore, MissingKeyReportsNotFound) {
  AppFixture f(62, 20);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver);
  mux.attach(kv);
  bool called = false;
  bool found = true;
  kv.get(f.random_node(), "nope", [&](bool ok, const std::string&) {
    called = true;
    found = ok;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
  EXPECT_EQ(kv.stats().get_misses, 1u);
}

TEST(KvStore, ReplicatesToLeafNeighbours) {
  AppFixture f(63, 30);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver, /*replicas=*/4);
  mux.attach(kv);
  kv.put(f.random_node(), "k1", "v1");
  f.driver->run_for(seconds(10));
  EXPECT_EQ(kv.stats().replicas_stored, 4u);
  // Exactly 5 copies exist in the system (root + 4 replicas).
  std::size_t copies = 0;
  for (const auto a : f.driver->live_addresses()) copies += kv.stored_on(a);
  EXPECT_EQ(copies, 5u);
}

TEST(KvStore, SurvivesRootFailure) {
  AppFixture f(64, 30);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver, 4);
  mux.attach(kv);
  kv.put(f.random_node(), "durable", "data");
  f.driver->run_for(seconds(10));
  // Kill the current root of the key.
  const auto root =
      f.driver->oracle().root_of(NodeId::hash_of("durable"));
  ASSERT_TRUE(root);
  f.driver->kill_node(*root);
  f.driver->run_for(minutes(3));  // detection + leaf repair
  // The new root is one of the old leaf-set neighbours, which holds a
  // replica: the get still succeeds.
  bool found = false;
  std::string got;
  kv.get(f.random_node(), "durable", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "data");
}

TEST(KvStore, ManyKeysSpreadOverNodes) {
  AppFixture f(65, 30);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver, 0);
  mux.attach(kv);
  for (int i = 0; i < 60; ++i) {
    kv.put(f.random_node(), "key" + std::to_string(i), "v");
    f.driver->run_for(milliseconds(300));
  }
  f.driver->run_for(seconds(10));
  // At least a third of the nodes should hold something (hashing spreads).
  int holders = 0;
  for (const auto a : f.driver->live_addresses()) {
    if (kv.stored_on(a) > 0) ++holders;
  }
  EXPECT_GE(holders, 10);
}

TEST(KvStore, RepairSurvivesSequentialRootFailures) {
  // Without repair, replicas are placed only at put time: killing the
  // root and then its successors one by one eventually destroys all
  // copies. With PAST-like repair enabled, the replica set follows the
  // ring and the object survives.
  AppFixture f(76, 40);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver, /*replicas=*/4);
  mux.attach(kv);
  kv.enable_repair(minutes(2));
  kv.put(f.random_node(), "perennial", "still-here");
  f.driver->run_for(seconds(10));
  const NodeId key = NodeId::hash_of("perennial");
  // Kill the current root four times in a row, waiting for detection,
  // leaf repair and a replica-repair round in between.
  for (int round = 0; round < 4; ++round) {
    const auto root = f.driver->oracle().root_of(key);
    ASSERT_TRUE(root);
    f.driver->kill_node(*root);
    f.driver->run_for(minutes(4));
  }
  bool found = false;
  std::string got;
  kv.get(f.random_node(), "perennial", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "still-here");
}

// --- Web cache (Squirrel-like) -----------------------------------------------

// `nodes` proxies join at t = 0 and browse for 20 minutes on one shard;
// the cache is inspected after the run. Time 0 is off-hours, so the
// request rate is off_hours_floor * peak_rate_per_node per node.
std::unique_ptr<overlay::ShardedDriver> browse(
    apps::ShardedWebCacheService& cache, std::uint64_t seed, int nodes) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;  // the cache drives all lookups
  cfg.warmup = 0;
  cfg.seed = seed;
  auto driver = std::make_unique<overlay::ShardedDriver>(
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4)),
      net::NetworkConfig{}, cfg, 1);
  driver->attach_app(&cache);
  std::vector<trace::ChurnEvent> joins;
  for (int i = 0; i < nodes; ++i) {
    joins.push_back({0, i, trace::ChurnEventType::kJoin});
  }
  driver->run_trace(trace::ChurnTrace(std::move(joins), "office"),
                    minutes(20));
  return driver;
}

// One hot object: every request is for page 0.
apps::ShardedWebCacheService::Params one_url() {
  apps::ShardedWebCacheService::Params params;
  params.workload.url_count = 1;
  return params;
}

TEST(WebCache, FirstRequestMissesThenHits) {
  apps::ShardedWebCacheService cache(one_url());
  browse(cache, 66, 25);
  const auto st = cache.stats();
  EXPECT_GT(st.requests, 5u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, st.requests - 1);
  EXPECT_EQ(st.responses, st.requests);
}

TEST(WebCache, HitIsFasterThanMiss) {
  auto params = one_url();
  params.origin_delay = milliseconds(500);
  apps::ShardedWebCacheService cache(params);
  const auto driver = browse(cache, 67, 25);
  const auto& samples = driver->app_latency_samples();
  ASSERT_EQ(samples.size(), cache.stats().responses);
  // Exactly the misses pay the origin fetch; every hit is faster.
  const auto slow = std::count_if(samples.begin(), samples.end(),
                                  [](double s) { return s >= 0.5; });
  EXPECT_EQ(static_cast<std::uint64_t>(slow), cache.stats().misses);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(WebCache, SameUrlCachedOnSingleHomeNode) {
  apps::ShardedWebCacheService cache(one_url());
  const auto driver = browse(cache, 68, 25);
  const auto home =
      driver->oracle().root_of(apps::ShardedWebCacheService::url_key(0));
  ASSERT_TRUE(home.has_value());
  int holders = 0;
  for (net::Address a = 0; a < 25; ++a) {
    if (cache.cached_on(a) > 0) ++holders;
  }
  EXPECT_EQ(holders, 1);  // exactly the home node
  EXPECT_EQ(cache.cached_on(*home), 1u);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(WebCache, CapacityEvicts) {
  apps::ShardedWebCacheService::Params params;
  params.capacity = 3;
  params.workload.peak_rate_per_node = 1.0;  // 0.05 requests/s per node
  apps::ShardedWebCacheService cache(params);
  browse(cache, 69, 10);
  std::size_t largest = 0;
  for (net::Address a = 0; a < 10; ++a) {
    EXPECT_LE(cache.cached_on(a), 3u);
    largest = std::max(largest, cache.cached_on(a));
  }
  EXPECT_EQ(largest, 3u);
  // More objects were fetched than are still cached: some were evicted.
  EXPECT_GT(cache.stats().misses, cache.cached_total());
}

// --- Multicast (Scribe-like) --------------------------------------------------

TEST(Multicast, MembersReceivePublishedMessages) {
  AppFixture f(70, 30);
  apps::AppMux mux(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(mc);
  const NodeId group = apps::MulticastService::group_id("news");
  std::vector<net::Address> members;
  const auto addrs = f.driver->live_addresses();
  for (int i = 0; i < 10; ++i) {
    members.push_back(addrs[static_cast<std::size_t>(i)]);
    mc.subscribe(members.back(), group);
  }
  f.driver->run_for(seconds(10));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId g, std::uint64_t id) {
    EXPECT_EQ(g, group);
    EXPECT_EQ(id, 7u);
    got.insert(m);
  };
  mc.publish(addrs.back(), group, 7);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got.size(), members.size());
  for (const auto m : members) EXPECT_TRUE(got.count(m) > 0) << m;
}

TEST(Multicast, NonMembersDoNotReceive) {
  AppFixture f(71, 20);
  apps::AppMux mux(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(mc);
  const NodeId group = apps::MulticastService::group_id("quiet");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  f.driver->run_for(seconds(5));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId, std::uint64_t) {
    got.insert(m);
  };
  mc.publish(addrs[1], group, 1);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got, (std::set<net::Address>{addrs[0]}));
}

TEST(Multicast, DuplicatePublishSuppressed) {
  AppFixture f(72, 20);
  apps::AppMux mux(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(mc);
  const NodeId group = apps::MulticastService::group_id("dup");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  f.driver->run_for(seconds(5));
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[1], group, 5);
  mc.publish(addrs[2], group, 5);  // same message id: suppressed
  f.driver->run_for(seconds(10));
  EXPECT_EQ(deliveries, 1);
}

TEST(Multicast, ResubscribeIsIdempotent) {
  AppFixture f(73, 20);
  apps::AppMux mux(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(mc);
  const NodeId group = apps::MulticastService::group_id("refresh");
  const auto addrs = f.driver->live_addresses();
  for (int i = 0; i < 3; ++i) {
    mc.subscribe(addrs[0], group);
    f.driver->run_for(seconds(5));
  }
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[1], group, 9);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(deliveries, 1);
}

TEST(Multicast, AutoRefreshHealsTreeAfterForwarderCrash) {
  AppFixture f(75, 30);
  apps::AppMux mux(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(mc);
  mc.enable_auto_refresh(seconds(30));
  const NodeId group = apps::MulticastService::group_id("healing");
  const auto addrs = f.driver->live_addresses();
  std::set<net::Address> members;
  for (int i = 0; i < 12; ++i) {
    members.insert(addrs[static_cast<std::size_t>(i)]);
    mc.subscribe(addrs[static_cast<std::size_t>(i)], group);
  }
  f.driver->run_for(seconds(10));
  // Crash several non-member nodes (potential interior forwarders).
  for (int i = 20; i < 25; ++i) {
    f.driver->kill_node(addrs[static_cast<std::size_t>(i)]);
  }
  // Wait for failure detection plus at least two refresh rounds.
  f.driver->run_for(minutes(4));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId, std::uint64_t) {
    got.insert(m);
  };
  mc.publish(addrs[15], group, 42);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got, members);
}

TEST(Multicast, TwoAppsShareOneOverlay) {
  // The AppMux must dispatch kv and multicast traffic independently.
  AppFixture f(74, 20);
  apps::AppMux mux(*f.driver);
  apps::KvStoreService kv(*f.driver);
  apps::MulticastService mc(*f.driver);
  mux.attach(kv);
  mux.attach(mc);
  const NodeId group = apps::MulticastService::group_id("mix");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  bool put_ok = false;
  kv.put(addrs[1], "mixed", "use", [&](bool ok) { put_ok = ok; });
  f.driver->run_for(seconds(10));
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[2], group, 1);
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(put_ok);
  EXPECT_EQ(deliveries, 1);
}

}  // namespace
}  // namespace mspastry
