#pragma once

// Synthetic web-browsing workload for the Squirrel-style experiments
// (Figure 8): a non-homogeneous Poisson request process with an
// office-hours weekday pattern, over a Zipf-like URL popularity
// distribution. Drives apps::ShardedWebCacheService (bench/fig8_squirrel,
// the web_cache example, the perfbench squirrel workload);
// parameters documented against the MSR-Cambridge deployment the paper
// logs (52 machines, 4 weekdays + a weekend).

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace mspastry::apps {

struct WebWorkloadParams {
  /// Peak per-machine request rate at mid-afternoon on a weekday.
  double peak_rate_per_node = 0.02;
  /// Night/weekend floor as a fraction of the weekday office shape.
  double off_hours_floor = 0.05;
  /// Weekend damping of the whole curve.
  double weekend_factor = 0.1;
  /// Day-of-week of simulated time zero (0 = Monday); the paper's trace
  /// starts on a Thursday, putting days 2-3 on the weekend.
  int start_day_of_week = 3;
  /// URL universe size and Zipf-like skew (u^(1/(1-s)) style sampling;
  /// 1.0 approximates the classic web-popularity curve).
  int url_count = 2000;
};

/// Request-rate shape and URL popularity of the workload. Both are pure
/// (the page draw takes the caller's stream), so every node of a sharded
/// run can evaluate them independently.
class WebWorkload {
 public:
  explicit WebWorkload(WebWorkloadParams params) : params_(params) {}

  /// Per-node request rate (requests/second) at simulated time t.
  double rate_at(SimTime t) const {
    const double day = to_seconds(t) / 86400.0;
    const int day_idx = static_cast<int>(day);
    const double hour = (day - day_idx) * 24.0;
    const int dow = (params_.start_day_of_week + day_idx) % 7;
    const bool weekend = dow >= 5;
    const double office =
        hour > 8.0 && hour < 19.0
            ? std::sin((hour - 8.0) / 11.0 * M_PI)  // ramp, peak, ramp
            : params_.off_hours_floor;
    const double shape = std::max(params_.off_hours_floor, office);
    return (weekend ? params_.weekend_factor : 1.0) * shape *
           params_.peak_rate_per_node;
  }

  /// A page index in [0, url_count) drawn from `rng` with the skewed
  /// popularity distribution (small indices are hot).
  int pick_page(Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<int>(
               std::pow(static_cast<double>(params_.url_count), u)) -
           1;
  }

  const WebWorkloadParams& params() const { return params_; }

 private:
  WebWorkloadParams params_;
};

}  // namespace mspastry::apps
