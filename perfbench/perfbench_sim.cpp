// perfbench_sim: one repetition of one benchmark workload, measured from
// outside the simulator. Everything goes through public seams —
// net::Topology (the delay oracle), overlay::ShardedApp (the apps), trace
// generation, overlay::ShardedDriver construction and run_trace — and the
// public counters are read after the run. perfbench/run.py starts one
// process per repetition and aggregates; see perfbench/README.md.
//
//   perfbench_sim run --workload NAME --seed N [--scale full|smoke]
//                     [--shards S] [--traced 0|1] [--spans PATH]
//   perfbench_sim chase
//   perfbench_sim sampler
//
// `run` prints one JSON object on stdout and exits 0 when every
// correctness gate passed, 1 (with the failed gates on stderr) otherwise,
// 2 on bad usage. `chase` prints the host-noise reference timing: a
// fixed pointer chase through a 16 MiB random cycle, in ns per step.
// `sampler` is the host-speed reference that `run` starts beside
// `run_trace` (see Sampler below).

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "apps/sharded_web_cache.hpp"
#include "common/hash_mix.hpp"
#include "common/stats.hpp"
#include "net/corpnet.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

using namespace mspastry;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

// --- Workloads ----------------------------------------------------------

enum class NetKind { kGATechPaper, kGATech630, kCorpNet };

struct Workload {
  const char* name;
  NetKind net;
  int nodes;             ///< target active population
  SimDuration duration;  ///< simulated trace length
  std::size_t shards;
  bool squirrel;         ///< web cache app attached, app-driven lookups
  SimDuration window;    ///< metrics window
  SimDuration warmup;    ///< excluded from the aggregates
};

/// Full-size workloads. Why each exists is in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    // Gnutella dynamics, everyone joins at t = 0 on the 5050-router
    // GATech graph (landmark oracle). Warmup 0: the storm is the subject.
    {"join_storm", NetKind::kGATechPaper, 1500, minutes(4), 1, false,
     minutes(1), 0},
    // The same at 4 shards. Runnable but not gated: its host time follows
    // hypervisor steal (perfbench/README.md).
    {"join_storm_s4", NetKind::kGATechPaper, 1500, minutes(4), 4, false,
     minutes(1), 0},
    // Gnutella churn at steady state on the 630-router graph (exact rows).
    {"steady_churn", NetKind::kGATech630, 400, hours(1), 1, false,
     minutes(10), minutes(10)},
    // Squirrel web cache: 52 CorpNet machines (fig8), 3 of its 6 days.
    {"squirrel", NetKind::kCorpNet, 52, days(3), 1, true, hours(1),
     hours(2)},
};

/// Smoke sizes for the self-test: same shapes, seconds of host time.
constexpr Workload kSmoke[] = {
    {"join_storm", NetKind::kGATechPaper, 300, minutes(3), 1, false,
     minutes(1), 0},
    {"join_storm_s4", NetKind::kGATechPaper, 300, minutes(3), 4, false,
     minutes(1), 0},
    {"steady_churn", NetKind::kGATech630, 150, minutes(40), 1, false,
     minutes(10), minutes(10)},
    {"squirrel", NetKind::kCorpNet, 52, days(1), 1, true, hours(1),
     hours(2)},
};

constexpr std::uint64_t kTraceSeed = 2004;

std::shared_ptr<net::Topology> make_topology(NetKind k) {
  switch (k) {
    case NetKind::kGATechPaper:
      return std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams{});
    case NetKind::kGATech630:
      return std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(6, 4, 5));
    case NetKind::kCorpNet:
      return std::make_shared<net::CorpNetTopology>(net::CorpNetParams{});
  }
  return nullptr;
}

/// The churn trace is fixed per workload, as the paper's recorded traces
/// are: the seed varies the overlay (node ids, router placement, lookup
/// keys and times, web requests), not how many sessions there are.
trace::ChurnTrace make_trace(const Workload& w) {
  trace::SyntheticChurnParams p;
  if (w.squirrel) {
    // Corporate churn as in fig8: most machines stay up, a few reboot.
    p.duration = w.duration;
    p.mean_session_seconds = 37.7 * 3600;
    p.median_session_seconds = 30.0 * 3600;
    p.target_population = w.nodes;
    p.name = "squirrel-corp";
  } else {
    p = trace::gnutella_params(w.nodes / 2000.0,
                               to_seconds(w.duration) / (60.0 * 3600.0));
  }
  p.seed = kTraceSeed;
  return trace::generate_synthetic(p);
}

overlay::DriverConfig make_driver_config(const Workload& w,
                                         std::uint64_t seed) {
  overlay::DriverConfig c;
  c.lookup_rate_per_node = w.squirrel ? 0.0 : 0.01;  // paper base config
  c.metrics_window = w.window;
  c.warmup = w.warmup;
  c.seed = mix3(seed, 0xd51, 2);
  return c;
}

// --- Tracing decorators ---------------------------------------------------
//
// Per-thread buffers: a worker registers its buffer once (under the
// registry mutex) and afterwards writes only to it. The main thread reads
// all buffers after run_trace returns, when the engine's workers are
// quiescent.

enum SpanName : std::uint32_t {
  kSpanSetup,
  kSpanTopology,
  kSpanTrace,
  kSpanDriverCtor,
  kSpanAppAttach,
  kSpanRunTrace,
  kSpanDelay,
  kSpanAppRate,
  kSpanAppTick,
  kSpanAppDeliver,
  kSpanAppPacket,
  kSpanCount,
};
constexpr const char* kSpanNames[kSpanCount] = {
    "setup",         "setup.topology",     "setup.trace",
    "setup.driver",  "setup.app_attach",   "run_trace",
    "net.delay",     "apps.workload_rate", "apps.workload_tick",
    "apps.deliver",  "apps.packet",
};

/// Every 2^k-th call of a decorated method is timed.
constexpr std::uint64_t kDelaySampleMask = 31;
constexpr std::uint64_t kAppSampleMask = 7;

struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadBuf {
  std::uint64_t thread = 0;
  std::uint64_t calls[kSpanCount] = {};
  std::uint64_t sampled[kSpanCount] = {};
  std::int64_t sampled_ns[kSpanCount] = {};
  std::vector<Span> spans;
};

class SpanRegistry {
 public:
  ThreadBuf& local() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      buf = bufs_.back().get();
      buf->thread = bufs_.size() - 1;
    }
    return *buf;
  }
  /// Read only while no other thread records.
  const std::vector<std::unique_ptr<ThreadBuf>>& all() const { return bufs_; }

  std::atomic<std::uint64_t> phase{0};  ///< id of the enclosing phase span

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

SpanRegistry g_spans;

std::uint64_t span_id(const ThreadBuf& b) {
  return (b.thread << 40) | (b.spans.size() + 1);
}

/// Counts every call to `name` and times a sampled subset as a span.
template <typename F>
decltype(auto) traced_call(SpanName name, std::uint64_t mask, F&& f) {
  ThreadBuf& b = g_spans.local();
  const std::uint64_t n = b.calls[name]++;
  if ((n & mask) != 0) return f();
  struct Recorder {
    ThreadBuf& b;
    SpanName name;
    std::int64_t t0 = now_ns();
    ~Recorder() {
      const std::int64_t t1 = now_ns();
      ++b.sampled[name];
      b.sampled_ns[name] += t1 - t0;
      b.spans.push_back(Span{span_id(b),
                             g_spans.phase.load(std::memory_order_relaxed),
                             name, t0, t1});
    }
  } rec{b, name};
  return f();
}

/// A phase of the harness itself (setup steps, run_trace), always timed.
class PhaseSpan {
 public:
  PhaseSpan(SpanName name, bool record) : name_(name), record_(record) {
    if (record_) {
      ThreadBuf& b = g_spans.local();
      id_ = span_id(b);
      parent_ = g_spans.phase.exchange(id_);
      b.spans.push_back(Span{id_, parent_, name_, t0_, 0});
      index_ = b.spans.size() - 1;
    }
  }
  double stop() {
    const std::int64_t t1 = now_ns();
    if (record_) {
      g_spans.local().spans[index_].end_ns = t1;
      g_spans.phase.store(parent_);
    }
    return static_cast<double>(t1 - t0_) * 1e-9;
  }

 private:
  SpanName name_;
  bool record_;
  std::int64_t t0_ = now_ns();
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::size_t index_ = 0;
};

/// Forwarding decorator over the delay oracle: every virtual passes
/// straight through; delay() is counted and sampled.
class TracedTopology final : public net::Topology {
 public:
  explicit TracedTopology(std::shared_ptr<net::Topology> inner)
      : inner_(std::move(inner)) {}
  int router_count() const override { return inner_->router_count(); }
  SimDuration delay(int a, int b) const override {
    return traced_call(kSpanDelay, kDelaySampleMask,
                       [&] { return inner_->delay(a, b); });
  }
  std::string name() const override { return inner_->name(); }
  bool attachable(int router) const override {
    return inner_->attachable(router);
  }
  SimDuration min_positive_delay() const override {
    return inner_->min_positive_delay();
  }
  SimDuration min_delay_between(std::span<const int> a,
                                std::span<const int> b) const override {
    return inner_->min_delay_between(a, b);
  }
  net::DelayCacheStats delay_cache_stats() const override {
    return inner_->delay_cache_stats();
  }

 private:
  std::shared_ptr<net::Topology> inner_;
};

/// Forwarding decorator over an app: every hook is counted and sampled.
class TracedApp final : public overlay::ShardedApp {
 public:
  explicit TracedApp(overlay::ShardedApp& inner) : inner_(inner) {}
  void on_run_start(overlay::ShardedDriver& driver,
                    std::size_t shards) override {
    inner_.on_run_start(driver, shards);
  }
  double workload_rate(SimTime t) const override {
    return traced_call(kSpanAppRate, kAppSampleMask,
                       [&] { return inner_.workload_rate(t); });
  }
  void workload_tick(const overlay::ShardedDriver::AppNode& node) override {
    traced_call(kSpanAppTick, kAppSampleMask,
                [&] { inner_.workload_tick(node); });
  }
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override {
    traced_call(kSpanAppDeliver, kAppSampleMask,
                [&] { inner_.deliver(node, m); });
  }
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& packet) override {
    traced_call(kSpanAppPacket, kAppSampleMask,
                [&] { inner_.packet(node, from, packet); });
  }

 private:
  overlay::ShardedApp& inner_;
};

bool write_spans(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,thread,name,start_ns,end_ns\n");
  for (const auto& b : g_spans.all()) {
    for (const Span& s : b->spans) {
      std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   (unsigned long long)b->thread, kSpanNames[s.name],
                   (long long)s.start_ns, (long long)s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

// --- Output ---------------------------------------------------------------

class JsonOut {
 public:
  void num(const char* key, double v) {
    sep();
    std::printf("\"%s\": %.17g", key, std::isfinite(v) ? v : 0.0);
  }
  void u64(const char* key, std::uint64_t v) {
    sep();
    std::printf("\"%s\": %llu", key, (unsigned long long)v);
  }
  void str(const char* key, const std::string& v) {
    sep();
    std::printf("\"%s\": \"%s\"", key, v.c_str());
  }
  void end() { std::printf("}\n"); }

 private:
  void sep() { std::printf(first_ ? "{" : ", "); first_ = false; }
  bool first_ = true;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}
std::uint64_t hash_f64(std::uint64_t h, double v) {
  if (v == 0.0) v = 0.0;  // -0.0 digests like 0.0
  return hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

struct Usage {
  double cpu_s = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  long minflt = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  u.minflt = ru.ru_minflt;
  return u;
}

/// CPU time the hypervisor stole from this machine's vCPUs so far (the
/// `steal` column of /proc/stat), in seconds; 0 where not reported.
double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

/// Peak resident set of this process image. Not ru_maxrss: on Linux that
/// carries the parent's RSS across fork+exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Host-speed reference ----------------------------------------------------
//
// Other tenants of the shared host contend for its cores, caches and
// memory, so the same repetition runs up to ~40% slower from one second or
// minute to the next. The sampler measures that contention while
// run_trace runs: a separate process on the same CPU that, every 10 ms,
// times a burst of a fixed miniature event loop (a binary-heap event queue
// and 4 MiB of per-node state). Its time per event rises and falls with
// run_trace's own speed, about in proportion, so run.py divides the wall
// time by it. It calls nothing of the simulator, so no change to the
// program moves it, and as a process of its own its memory never shows in
// the repetition's peak RSS. The bursts take about 1.5% of the CPU.

constexpr std::uint32_t kSamplerNodes = 1u << 16;  // 64 B of state each
constexpr std::size_t kSamplerQueue = std::size_t{1} << 15;
constexpr int kSamplerEvents = 500;  // per burst
constexpr int kSamplerPeriodMs = 10;

int sampler() {
  struct Event {
    std::uint64_t time;
    std::uint32_t node;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.time > b.time;
  };
  std::vector<std::uint64_t> state(std::size_t{kSamplerNodes} * 8, 1);
  std::vector<Event> queue;
  queue.reserve(kSamplerQueue + 1);
  std::uint64_t z = 7;
  for (std::size_t i = 0; i < kSamplerQueue; ++i) {
    z = mix64(z);
    queue.push_back(
        {z % 1000000, static_cast<std::uint32_t>(z % kSamplerNodes)});
    std::push_heap(queue.begin(), queue.end(), later);
  }
  std::puts("ready");
  std::fflush(stdout);
  std::uint64_t bursts = 0;
  double total_ns = 0;
  pollfd in{STDIN_FILENO, POLLIN, 0};
  // One burst per period until the parent closes our stdin.
  do {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSamplerEvents; ++i) {
      std::pop_heap(queue.begin(), queue.end(), later);
      const Event e = queue.back();
      queue.pop_back();
      std::uint64_t* node = &state[std::size_t{e.node} * 8];
      node[0] += e.time;
      node[3] ^= node[0];
      z = mix64(z ^ node[3]);
      if (z & 1) {
        node[5] += z;
      } else {
        node[6] ^= z;
      }
      queue.push_back({e.time + 1 + z % 100000,
                       static_cast<std::uint32_t>(z % kSamplerNodes)});
      std::push_heap(queue.begin(), queue.end(), later);
    }
    total_ns += static_cast<double>(now_ns() - t0) / kSamplerEvents;
    ++bursts;
  } while (poll(&in, 1, kSamplerPeriodMs) == 0);
  std::printf("{\"event_ns\": %.17g, \"bursts\": %llu, \"end\": %llu}\n",
              total_ns / static_cast<double>(bursts),
              static_cast<unsigned long long>(bursts),
              static_cast<unsigned long long>(z));
  return 0;
}

/// A `perfbench_sim sampler` child, started on this process's CPUs.
class Sampler {
 public:
  Sampler() {
    int to[2], from[2];
    if (pipe2(to, O_CLOEXEC) != 0) return;
    if (pipe2(from, O_CLOEXEC) != 0) {
      close(to[0]);
      close(to[1]);
      return;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, from[1], STDOUT_FILENO);
    char exe[] = "/proc/self/exe";
    char cmd[] = "sampler";
    char* argv[] = {exe, cmd, nullptr};
    if (posix_spawn(&pid_, exe, &fa, nullptr, argv, environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
    close(to[0]);
    close(from[1]);
    in_ = to[1];
    out_ = fdopen(from[0], "r");
    char line[64];
    if (pid_ < 0 || out_ == nullptr ||
        std::fgets(line, sizeof line, out_) == nullptr) {
      stop();
    }
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { stop(); }

  /// Ends the child. Returns its mean time per event in ns and its burst
  /// count, or zeros if it failed.
  std::pair<double, std::uint64_t> stop() {
    double event_ns = 0;
    unsigned long long bursts = 0;
    if (in_ >= 0) close(in_);
    in_ = -1;
    if (out_ != nullptr) {
      if (pid_ > 0 &&
          std::fscanf(out_, " {\"event_ns\": %lf, \"bursts\": %llu",
                      &event_ns, &bursts) != 2) {
        event_ns = 0;
        bursts = 0;
      }
      std::fclose(out_);
      out_ = nullptr;
    }
    if (pid_ > 0) {
      int status = 0;
      if (waitpid(pid_, &status, 0) != pid_ || status != 0) {
        event_ns = 0;
        bursts = 0;
      }
      pid_ = -1;
    }
    return {event_ns, bursts};
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  std::FILE* out_ = nullptr;
};

// --- One repetition ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool traced = false;
  std::size_t shards = 0;  ///< 0 = the workload's own
  std::string spans;
};

/// Everything one set-up builds; the last one built is the one that runs.
/// Members are destroyed in reverse order: the driver before the app and
/// the topology it points to.
struct Setup {
  std::shared_ptr<net::Topology> topology;  ///< undecorated oracle
  trace::ChurnTrace trace;
  std::unique_ptr<apps::ShardedWebCacheService> cache;
  std::unique_ptr<TracedApp> traced_app;
  std::unique_ptr<overlay::ShardedDriver> driver;
  double topology_s = 0, trace_s = 0, driver_s = 0, attach_s = 0, total_s = 0;
};

std::unique_ptr<Setup> set_up(const Workload& w, const Options& o) {
  auto sp = std::make_unique<Setup>();
  Setup& s = *sp;
  PhaseSpan all(kSpanSetup, o.traced);
  PhaseSpan topo(kSpanTopology, o.traced);
  s.topology = make_topology(w.net);
  s.topology_s = topo.stop();

  PhaseSpan tr(kSpanTrace, o.traced);
  s.trace = make_trace(w);
  s.trace_s = tr.stop();

  PhaseSpan ctor(kSpanDriverCtor, o.traced);
  std::shared_ptr<const net::Topology> seen = s.topology;
  if (o.traced) seen = std::make_shared<TracedTopology>(s.topology);
  net::NetworkConfig ncfg;
  ncfg.lan_delay = milliseconds(1);  // GATech and CorpNet attach via LAN
  s.driver = std::make_unique<overlay::ShardedDriver>(
      std::move(seen), ncfg, make_driver_config(w, o.seed),
      o.shards ? o.shards : w.shards);
  s.driver_s = ctor.stop();

  PhaseSpan attach(kSpanAppAttach, o.traced);
  if (w.squirrel) {
    s.cache = std::make_unique<apps::ShardedWebCacheService>();
    overlay::ShardedApp* app = s.cache.get();
    if (o.traced) {
      s.traced_app = std::make_unique<TracedApp>(*s.cache);
      app = s.traced_app.get();
    }
    s.driver->attach_app(app);
  }
  s.attach_s = attach.stop();
  s.total_s = all.stop();
  return sp;
}

const Workload* find_workload(const std::string& name, bool smoke) {
  for (const Workload& w : smoke ? kSmoke : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int run(const Options& o) {
  const Workload* wp = find_workload(o.workload, o.smoke);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;

  // Set up repeatedly until ~0.15 s of set-up has been timed, so a
  // millisecond-sized set-up is reported as a median of many samples.
  constexpr double kMinSetupSeconds = 0.15;
  constexpr int kMaxSetups = 400;
  std::vector<double> setup_s, topo_s, trace_s, ctor_s, attach_s;
  std::unique_ptr<Setup> sp;
  double setup_total = 0;
  while (setup_total < kMinSetupSeconds &&
         static_cast<int>(setup_s.size()) < kMaxSetups) {
    sp.reset();  // destroy the previous set-up outside the timed region
    sp = set_up(w, o);
    setup_s.push_back(sp->total_s);
    topo_s.push_back(sp->topology_s);
    trace_s.push_back(sp->trace_s);
    ctor_s.push_back(sp->driver_s);
    attach_s.push_back(sp->attach_s);
    setup_total += sp->total_s;
  }
  Setup& s = *sp;
  overlay::ShardedDriver& d = *s.driver;

  const Usage u0 = usage_now();
  const double steal0 = host_steal_s();
  Sampler sampler;
  PhaseSpan run_span(kSpanRunTrace, o.traced);
  d.run_trace(s.trace);
  const double run_s = run_span.stop();
  const auto [ref_event_ns, ref_bursts] = sampler.stop();
  const double steal_s = host_steal_s() - steal0;
  const Usage u1 = usage_now();

  // --- Read the public counters -------------------------------------------
  overlay::Metrics& m = d.metrics();
  const pastry::Counters& c = d.counters();
  const net::DelayCacheStats oracle = s.topology->delay_cache_stats();
  const std::uint64_t issued = m.lookups_issued();
  const std::uint64_t failed =
      m.lookups_delivered_incorrect() + m.lookups_lost();
  const double rdp_p50 = m.rdp_samples().quantile(0.5);
  const double rdp_p95 = m.rdp_samples().quantile(0.95);
  const double rdp_p99 = m.rdp_samples().quantile(0.99);
  const double control = m.control_traffic_rate();
  const double join_p50 = m.join_latency_samples().quantile(0.5);
  const double join_p90 = m.join_latency_samples().quantile(0.90);
  const double join_p99 = m.join_latency_samples().quantile(0.99);
  const std::uint64_t sent = d.packets_sent();
  const std::uint64_t lost = d.packets_lost();
  const std::uint64_t delivered = d.packets_delivered();
  const std::uint64_t unbound = d.packets_dropped_unbound();
  const std::uint64_t adversarial = d.packets_dropped_adversarial();
  const std::int64_t in_flight = d.packets_in_flight();

  apps::ShardedWebCacheService::Stats app{};
  SampleSet app_lat;
  if (s.cache) {
    app = s.cache->stats();
    for (const double x : d.app_latency_samples()) app_lat.add(x);
  }

  // --- Correctness gates -----------------------------------------------------
  std::vector<std::string> failures;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  gate(static_cast<std::int64_t>(sent) ==
           static_cast<std::int64_t>(lost + delivered + unbound +
                                     adversarial) +
               in_flight,
       "packet conservation: sent != lost + delivered + dropped_unbound + "
       "dropped_adversarial + in_flight");
  gate(in_flight >= 0, "negative in-flight packet count");
  gate(ref_event_ns > 0 && ref_bursts > 0, "host-speed sampler failed");
  if (oracle.landmark_mode) {
    gate(oracle.cached_rows == 0,
         "landmark oracle filled exact Dijkstra rows");
  }
  auto finite_pos = [](double v) { return std::isfinite(v) && v > 0; };
  gate(issued > 0, "no lookups issued after warmup");
  gate(m.rdp_samples().count() > 0 && finite_pos(rdp_p50) &&
           rdp_p50 >= 1.0 && rdp_p95 >= rdp_p50 && finite_pos(rdp_p99) &&
           rdp_p99 >= rdp_p95,
       "RDP quantiles degenerate");
  gate(finite_pos(control), "control traffic rate is zero or not finite");
  gate(m.join_latency_samples().count() > 0 && finite_pos(join_p50) &&
           join_p90 >= join_p50 && std::isfinite(join_p99) &&
           join_p99 >= join_p90,
       "join latency quantiles degenerate");
  gate(d.live_node_count() > 0, "no live nodes at the end");
  gate(m.joins_completed() > 0, "no joins completed");
  if (w.squirrel) {
    gate(app.requests > 0, "no web requests");
    gate(app_lat.count() == app.responses,
         "latency samples != responses received");
    // hits + misses may exceed requests: a retransmitted lookup can reach
    // its root twice. Responses are matched to pending requests, once.
    gate(app.responses <= app.requests, "more responses than requests");
    // Requests still in flight at the end are the only unanswered ones.
    gate(static_cast<double>(app.requests - app.responses) <=
             0.01 * static_cast<double>(app.requests),
         "more than 1% of web requests unanswered");
  }

  // --- Digest of everything simulated (not how fast) ---------------------
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t v :
       {d.executed_events(), d.epochs(), issued, m.lookups_delivered_correct(),
        m.lookups_delivered_incorrect(), m.lookups_lost(), sent, lost,
        delivered, unbound, static_cast<std::uint64_t>(in_flight),
        c.heartbeats_sent, c.rt_probes_sent, c.rt_probes_suppressed,
        c.ls_probes_sent, c.distance_probes_sent, c.acks_sent, c.ack_timeouts,
        c.nodes_marked_faulty, c.false_positives, c.lookups_forwarded,
        c.joins_completed, app.requests, app.hits, app.misses, app.responses,
        static_cast<std::uint64_t>(d.live_node_count())}) {
    h = hash_u64(h, v);
  }
  for (const double v : {m.mean_rdp(), rdp_p50, rdp_p95, rdp_p99, control,
                         join_p50, join_p90, join_p99}) {
    h = hash_f64(h, v);
  }
  for (int k = 0; k < pastry::kTrafficClassCount; ++k) {
    h = hash_f64(h,
                 m.control_traffic_rate(static_cast<pastry::TrafficClass>(k)));
  }
  for (const double x : d.app_latency_samples()) h = hash_f64(h, x);

  // Digest of the inputs the program received: the churn trace, the
  // topology and the seed-derived driver seed.
  std::uint64_t in = hash_u64(kFnvOffset, make_driver_config(w, o.seed).seed);
  in = hash_u64(in, static_cast<std::uint64_t>(s.topology->router_count()));
  for (const trace::ChurnEvent& e : s.trace.events()) {
    in = hash_u64(in, static_cast<std::uint64_t>(e.time));
    in = hash_u64(in, static_cast<std::uint64_t>(e.node) << 8 |
                          static_cast<std::uint64_t>(e.type));
  }

  // --- Traced self times ---------------------------------------------------
  std::uint64_t calls[kSpanCount] = {}, sampled[kSpanCount] = {};
  std::int64_t sampled_ns[kSpanCount] = {};
  std::uint64_t span_count = 0;
  for (const auto& b : g_spans.all()) {
    for (std::size_t k = 0; k < kSpanCount; ++k) {
      calls[k] += b->calls[k];
      sampled[k] += b->sampled[k];
      sampled_ns[k] += b->sampled_ns[k];
    }
    span_count += b->spans.size();
  }
  auto mean_ns = [&](std::initializer_list<SpanName> names) {
    std::uint64_t n = 0;
    std::int64_t ns = 0;
    for (const SpanName k : names) {
      n += sampled[k];
      ns += sampled_ns[k];
    }
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  // Estimated busy time of a layer: sampled mean x exact call count.
  auto est_s = [&](std::initializer_list<SpanName> names) {
    double total = 0;
    for (const SpanName k : names) total += mean_ns({k}) * calls[k] * 1e-9;
    return total;
  };
  const std::initializer_list<SpanName> app_hooks = {
      kSpanAppRate, kSpanAppTick, kSpanAppDeliver, kSpanAppPacket};
  const double delay_s = est_s({kSpanDelay});
  const double app_s = est_s(app_hooks);
  std::uint64_t app_calls = 0;
  for (const SpanName k : app_hooks) app_calls += calls[k];
  const std::size_t shards = d.effective_shards();
  if (o.traced && !o.spans.empty() && !write_spans(o.spans.c_str())) {
    failures.push_back("cannot write spans to " + o.spans);
  }

  // --- Report ------------------------------------------------------------------
  const double live = static_cast<double>(d.live_node_count());
  JsonOut out;
  out.str("workload", w.name);
  out.u64("seed", o.seed);
  out.u64("traced", o.traced);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", (unsigned long long)h);
  out.str("digest", digest);
  std::snprintf(digest, sizeof digest, "%016llx", (unsigned long long)in);
  out.str("inputs", digest);
  out.u64("shards", shards);
  out.u64("setups", setup_s.size());
  out.num("setup_s", median(setup_s));
  out.num("topology_build_s", median(topo_s));
  out.num("trace_generate_s", median(trace_s));
  out.num("driver_ctor_s", median(ctor_s));
  out.num("app_attach_s", median(attach_s));
  out.num("run_s", run_s);
  out.num("cpu_s", u1.cpu_s - u0.cpu_s);
  out.num("peak_rss_mb", peak_rss_mb());
  out.u64("nvcsw", u1.nvcsw - u0.nvcsw);
  out.u64("nivcsw", u1.nivcsw - u0.nivcsw);
  out.u64("minflt", u1.minflt - u0.minflt);
  out.num("steal_s", steal_s);
  out.num("ref_event_ns", ref_event_ns);
  out.u64("ref_bursts", ref_bursts);
  out.u64("lookups_issued", issued);
  out.u64("lookups_failed", failed);
  out.u64("lookups_correct", m.lookups_delivered_correct());
  out.num("rdp_p50", rdp_p50);
  out.num("rdp_p99", rdp_p99);
  out.num("rdp_p95", rdp_p95);
  out.num("join_latency_p90_s", join_p90);
  out.u64("rdp_samples", m.rdp_samples().count());
  out.num("control_msgs_per_node_s", control);
  out.num("join_latency_p50_s", join_p50);
  out.num("join_latency_p99_s", join_p99);
  out.u64("join_samples", m.join_latency_samples().count());
  out.u64("events", d.executed_events());
  out.u64("epochs", d.epochs());
  out.u64("sessions", static_cast<std::uint64_t>(s.trace.session_count()));
  out.num("live_nodes", live);
  out.u64("joins_completed", m.joins_completed());
  out.u64("packets_sent", sent);
  out.u64("packets_lost", lost);
  out.u64("packets_unbound", unbound);
  out.u64("landmark_mode", oracle.landmark_mode);
  out.u64("oracle_bytes", oracle.oracle_bytes + oracle.row_cache_bytes);
  out.u64("cached_rows", oracle.cached_rows);
  static constexpr std::pair<const char*, pastry::TrafficClass> kClasses[] = {
      {"msgs.join", pastry::TrafficClass::kJoin},
      {"msgs.leafset", pastry::TrafficClass::kLeafSetTraffic},
      {"msgs.rt_probes", pastry::TrafficClass::kRtProbes},
      {"msgs.distance_probes", pastry::TrafficClass::kDistanceProbes},
      {"msgs.acks", pastry::TrafficClass::kAcksRetransmits},
      {"msgs.lookups", pastry::TrafficClass::kLookups},
  };
  for (const auto& [key, cls] : kClasses) {
    out.num(key, m.control_traffic_rate(cls));
  }
  out.u64("lookups_forwarded", c.lookups_forwarded);
  out.u64("ack_timeouts", c.ack_timeouts);
  out.u64("rt_probes_suppressed", c.rt_probes_suppressed);
  out.u64("rt_probes_periodic", c.rt_probes_periodic);
  out.u64("false_positives", c.false_positives);
  out.u64("app_requests", app.requests);
  out.u64("app_hits", app.hits);
  out.u64("app_misses", app.misses);
  out.u64("app_responses", app.responses);
  out.num("app_latency_p50_ms", app_lat.quantile(0.5) * 1e3);
  out.num("app_latency_p99_ms", app_lat.quantile(0.99) * 1e3);
  out.u64("delay_calls", calls[kSpanDelay]);
  out.num("delay_ns", mean_ns({kSpanDelay}));
  out.num("delay_s", delay_s);
  out.u64("upcalls.workload_rate", calls[kSpanAppRate]);
  out.u64("upcalls.workload_tick", calls[kSpanAppTick]);
  out.u64("upcalls.deliver", calls[kSpanAppDeliver]);
  out.u64("upcalls.packet", calls[kSpanAppPacket]);
  out.u64("upcalls", app_calls);
  out.num("upcall_ns", mean_ns(app_hooks));
  out.num("upcall_s", app_s);
  // Self time of the rest of run_trace: wall time minus the estimated
  // oracle and app time, spread evenly over the shards that ran them.
  out.num("run_self_s",
          run_s - (delay_s + app_s) / static_cast<double>(shards));
  out.u64("spans", span_count);
  out.end();

  for (const auto& f : failures) std::fprintf(stderr, "GATE FAILED: %s\n",
                                              f.c_str());
  return failures.empty() ? 0 : 1;
}

// --- Host-noise reference -----------------------------------------------------

int chase() {
  constexpr std::size_t kSlots = std::size_t{1} << 21;  // 16 MiB of size_t
  constexpr std::size_t kSteps = std::size_t{1} << 20;
  std::vector<std::size_t> next(kSlots);
  std::iota(next.begin(), next.end(), std::size_t{0});
  // Sattolo's algorithm with a fixed seed: one cycle through every slot.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x = mix64(x);
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> ns;
  std::size_t p = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSteps; ++i) p = next[p];
    ns.push_back(static_cast<double>(now_ns() - t0) / kSteps);
  }
  std::printf("{\"chase_ns\": %.17g, \"end\": %zu}\n", median(ns), p);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run --workload NAME --seed N [--scale full|smoke] "
               "[--shards S] [--traced 0|1] [--spans PATH]\n"
               "       %s chase\n"
               "       %s sampler\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "chase") == 0) return chase();
  if (argc >= 2 && std::strcmp(argv[1], "sampler") == 0) return sampler();
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage(argv[0]);
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--scale") {
      if (std::strcmp(v, "smoke") != 0 && std::strcmp(v, "full") != 0) {
        return usage(argv[0]);
      }
      o.smoke = std::strcmp(v, "smoke") == 0;
    } else if (a == "--shards") {
      o.shards = std::strtoull(v, nullptr, 10);
    } else if (a == "--traced") {
      o.traced = std::strcmp(v, "1") == 0;
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload.empty()) return usage(argv[0]);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
