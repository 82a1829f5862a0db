#include "apps/web_workload.hpp"

#include <gtest/gtest.h>

#include <map>

namespace mspastry::apps {
namespace {

WebWorkload make() { return WebWorkload(WebWorkloadParams{}); }

TEST(WebWorkload, WeekdayOfficeHoursPeak) {
  const auto w = make();
  // Day 0 is a Thursday (weekday). 13:30 is near the office-hours peak;
  // 03:00 is the floor.
  const double peak = w.rate_at(hours(13.5));
  const double night = w.rate_at(hours(3));
  EXPECT_GT(peak, 5 * night);
  EXPECT_NEAR(peak, w.params().peak_rate_per_node, 0.005);
}

TEST(WebWorkload, WeekendIsQuiet) {
  const auto w = make();
  // Start Thursday: day 2 = Saturday.
  const double thursday_noon = w.rate_at(hours(12));
  const double saturday_noon = w.rate_at(days(2) + hours(12));
  EXPECT_LT(saturday_noon, 0.3 * thursday_noon);
}

TEST(WebWorkload, WeeklyPatternRepeats) {
  const auto w = make();
  const double a = w.rate_at(hours(14));
  const double b = w.rate_at(days(7) + hours(14));
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(WebWorkload, RateNeverZero) {
  const auto w = make();
  for (double h = 0; h < 24 * 7; h += 0.5) {
    EXPECT_GT(w.rate_at(hours(h)), 0.0) << "hour " << h;
  }
}

TEST(WebWorkload, UrlPopularityIsSkewed) {
  const auto w = make();
  Rng rng(9);
  std::map<int, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[w.pick_page(rng)]++;
  // The hottest page should dwarf the per-page uniform share, and the
  // universe should still be broad.
  int hottest = 0;
  for (const auto& [page, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 20 * n / w.params().url_count);
  EXPECT_GT(counts.size(), 200u);
}

TEST(WebWorkload, UrlsStayInUniverse) {
  WebWorkloadParams p;
  p.url_count = 10;
  const WebWorkload w(p);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const int page = w.pick_page(rng);
    EXPECT_GE(page, 0);
    EXPECT_LT(page, 10);
  }
}

}  // namespace
}  // namespace mspastry::apps
