#pragma once

// A scripted Env implementation for driving a single PastryNode in
// isolation: tests control the clock, capture every outgoing message, and
// inject arbitrary incoming ones. This is where the fine-grained protocol
// rules (probe retry sequences, suppression evidence, exclusion
// semantics, buffering) are pinned down.

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "pastry/env.hpp"
#include "pastry/node.hpp"
#include "sim/simulator.hpp"

namespace mspastry::testing {

class MockEnv final : public pastry::Env {
 public:
  explicit MockEnv(std::uint64_t seed = 1) : rng_(seed) {}

  struct Sent {
    net::Address to;
    pastry::MessagePtr msg;
  };

  // --- Env ----------------------------------------------------------------
  SimTime now() const override { return sim_.now(); }

  TimerId schedule(SimDuration delay, InplaceCallback fn) override {
    return sim_.schedule_after(delay, std::move(fn));
  }

  void cancel(TimerId id) override { sim_.cancel(id); }

  void send(net::Address to, pastry::MessagePtr msg) override {
    sent_.push_back(Sent{to, std::move(msg)});
  }

  Rng& rng() override { return rng_; }

  pastry::MessagePool& pool() override { return pool_; }

  std::optional<pastry::NodeDescriptor> bootstrap_candidate() override {
    return bootstrap_;
  }

  void on_deliver(const pastry::LookupMsg& m) override {
    delivered_.push_back(m.lookup_id);
  }

  void on_activated() override { ++activations_; }

  void on_marked_faulty(net::Address victim) override {
    marked_faulty_.push_back(victim);
  }

  // --- Test controls --------------------------------------------------------

  /// Advance simulated time, firing the node's timers.
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }

  /// Outgoing messages captured since the last drain().
  std::vector<Sent> drain() {
    auto out = std::move(sent_);
    sent_.clear();
    return out;
  }

  /// Messages of one type currently queued (without draining).
  template <typename M>
  std::vector<const M*> outgoing(pastry::MsgType t) const {
    std::vector<const M*> out;
    for (const auto& s : sent_) {
      if (s.msg->type == t) out.push_back(static_cast<const M*>(s.msg.get()));
    }
    return out;
  }

  int count_outgoing(pastry::MsgType t) const {
    int n = 0;
    for (const auto& s : sent_) n += s.msg->type == t ? 1 : 0;
    return n;
  }

  void set_bootstrap(std::optional<pastry::NodeDescriptor> b) {
    bootstrap_ = std::move(b);
  }

  const std::vector<std::uint64_t>& delivered() const { return delivered_; }
  const std::vector<net::Address>& marked_faulty() const {
    return marked_faulty_;
  }
  int activations() const { return activations_; }

  Simulator& sim() { return sim_; }

 private:
  // Pool first: captured messages in sent_ must recycle into a live pool.
  pastry::MessagePool pool_;
  Simulator sim_;
  Rng rng_;
  std::vector<Sent> sent_;
  std::optional<pastry::NodeDescriptor> bootstrap_;
  std::vector<std::uint64_t> delivered_;
  std::vector<net::Address> marked_faulty_;
  int activations_ = 0;
};

/// Convenience: a node under test plus helpers to feed it messages "from"
/// fabricated peers.
struct NodeHarness {
  pastry::Config cfg;
  MockEnv env;
  pastry::Counters counters;
  std::unique_ptr<pastry::PastryNode> node;

  explicit NodeHarness(pastry::NodeDescriptor self, pastry::Config c = {})
      : cfg(c) {
    node = std::make_unique<pastry::PastryNode>(cfg, self, env, counters);
  }

  /// Deliver a message to the node as if it came from `from`. Stamps the
  /// sender header the way PastryNode::send would.
  template <typename M>
  void receive(const pastry::NodeDescriptor& from, IntrusivePtr<M> m) {
    m->sender = from;
    node->handle(from.addr, std::move(m));
  }

  /// Feed an LS probe from a peer with the given leaf set / failed set.
  void receive_ls_probe(const pastry::NodeDescriptor& from,
                        std::vector<pastry::NodeDescriptor> leaf = {},
                        std::vector<pastry::NodeDescriptor> failed = {},
                        bool reply = false) {
    auto m = pastry::make_msg<pastry::LsProbeMsg>(env.pool(), reply);
    m->leaf = leaf;
    m->failed = failed;
    receive(from, std::move(m));
  }
};

/// A descriptor with id = (0, lo).
inline pastry::NodeDescriptor nd(std::uint64_t lo, net::Address addr) {
  return pastry::NodeDescriptor{NodeId{0, lo}, addr};
}

/// A peer whose id occupies routing-table slot (0, digit) relative to a
/// node built with nd() (whose first hex digit is 0).
inline pastry::NodeDescriptor rt_peer(unsigned digit, net::Address addr) {
  return pastry::NodeDescriptor{
      NodeId{static_cast<std::uint64_t>(digit) << 60, 1}, addr};
}

}  // namespace mspastry::testing
