#include "overlay/adversary.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hash_mix.hpp"

namespace mspastry::overlay {

namespace {
constexpr std::uint64_t kAdvSelectSalt = 0x73656c65ull;  // "sele"
}  // namespace

const char* to_string(AdversaryBehavior b) {
  switch (b) {
    case AdversaryBehavior::kDrop:
      return "drop";
    case AdversaryBehavior::kMisroute:
      return "misroute";
    case AdversaryBehavior::kLie:
      return "lie";
  }
  return "?";
}

std::optional<AdversaryBehavior> behavior_from_name(std::string_view name) {
  if (name == "drop") return AdversaryBehavior::kDrop;
  if (name == "misroute") return AdversaryBehavior::kMisroute;
  if (name == "lie") return AdversaryBehavior::kLie;
  return std::nullopt;
}

bool KeyedAdversary::chance(double p) {
  // Mirrors Rng::chance, including the no-draw fast paths, so strike=1.0
  // adversaries consume no sequence numbers on the always-strike gate.
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return hash_to_unit(mix3(seed_, self_, seq_++)) < p;
}

KeyedAdversary::RouteAction KeyedAdversary::on_route(
    const pastry::RoutedMessage&, bool) {
  if (behavior_ == AdversaryBehavior::kLie || !chance(strike_)) {
    return RouteAction::kHonest;
  }
  return behavior_ == AdversaryBehavior::kDrop ? RouteAction::kDrop
                                               : RouteAction::kMisroute;
}

bool KeyedAdversary::corrupt_ls_reply(pastry::LeafVec& leaf,
                                      pastry::FailedVec& failed) {
  if (behavior_ != AdversaryBehavior::kLie || !chance(strike_)) {
    return false;
  }
  // Falsely report live leaf-set members as failed: receivers that trust
  // peer failure claims evict them and end up with stale leaf sets.
  bool changed = false;
  for (std::size_t i = 0; i < leaf.size();) {
    if (chance(0.5)) {
      failed.push_back(leaf[i]);
      leaf.erase(leaf.begin() + static_cast<std::ptrdiff_t>(i));
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

bool KeyedAdversary::corrupt_nn_reply(pastry::CandidateVec& candidates) {
  if (behavior_ != AdversaryBehavior::kLie || !chance(strike_)) {
    return false;
  }
  // Conceal most of the neighbourhood: the probing node discovers fewer
  // honest close nodes, slowing leaf-set repair and biasing its view.
  if (candidates.size() <= 1) return false;
  candidates.resize(1);
  return true;
}

std::vector<net::Address> select_corrupted(
    std::vector<net::Address> candidates, double fraction,
    std::uint64_t seed) {
  // Rank by a stateless hash of (seed, salt, address), ties by address:
  // reproducible from the seed alone, independent of shard layout and of
  // the map iteration order behind a driver's live-node list.
  const auto rank = [seed](net::Address a) {
    return mix3(seed, kAdvSelectSalt,
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](net::Address a, net::Address b) {
              const std::uint64_t ha = rank(a);
              const std::uint64_t hb = rank(b);
              return ha != hb ? ha < hb : a < b;
            });
  const auto k = static_cast<std::size_t>(
      fraction * static_cast<double>(candidates.size()) + 0.5);
  candidates.resize(std::min(k, candidates.size()));
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

NodeId sybil_id(NodeId victim, int i) {
  const U128 offset = U128{0, static_cast<std::uint64_t>(i / 2 + 1)} << 104;
  return NodeId{i % 2 == 0 ? victim.value() + offset
                           : victim.value() - offset};
}

std::vector<net::Address> AdversaryController::corrupt_fraction(
    double fraction) {
  const auto chosen =
      select_corrupted(driver_.live_addresses(), fraction, seed_);
  for (const net::Address a : chosen) corrupt(a);
  return chosen;
}

void AdversaryController::corrupt(net::Address a) {
  pastry::PastryNode* n = driver_.node(a);
  if (n == nullptr || policies_.count(a) > 0) return;
  auto policy = std::make_unique<KeyedAdversary>(behavior_, strike_, seed_, a);
  n->set_adversary(policy.get());
  policies_.emplace(a, std::move(policy));
}

std::vector<net::Address> AdversaryController::join_eclipse_cluster(
    NodeId victim, int count, SimDuration join_gap) {
  std::vector<net::Address> joined;
  joined.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const net::Address a = driver_.add_node_with_id(sybil_id(victim, i));
    // join_gap 0 supports arming from inside a scheduled callback, where
    // re-entering the simulator loop would be unsound.
    if (join_gap > 0) driver_.run_for(join_gap);
    corrupt(a);
    sybils_.push_back(a);
    joined.push_back(a);
  }
  return joined;
}

void AdversaryController::disarm() {
  for (auto& [a, policy] : policies_) {
    (void)policy;
    if (pastry::PastryNode* n = driver_.node(a)) n->set_adversary(nullptr);
  }
  policies_.clear();
}

void AdversaryController::kill_sybils() {
  for (const net::Address a : sybils_) {
    policies_.erase(a);  // node dies with its policy pointer
    driver_.kill_node(a);
  }
  sybils_.clear();
}

std::string AdversaryController::describe() const {
  std::vector<net::Address> addrs;
  addrs.reserve(policies_.size());
  for (const auto& [a, p] : policies_) {
    (void)p;
    addrs.push_back(a);
  }
  std::sort(addrs.begin(), addrs.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "adversary behavior=%s strike=%.2f nodes=[",
                to_string(behavior_), strike_);
  std::string out = buf;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(addrs[i]);
  }
  out += "] sybils=";
  out += std::to_string(sybils_.size());
  return out;
}

}  // namespace mspastry::overlay
