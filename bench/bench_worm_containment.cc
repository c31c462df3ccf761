// Experiment F5 — Worm propagation under containment policies.
//
// Seeds a random-scanning worm into the farm and measures the infection curve for
// each outbound policy. The fidelity/containment trade-off the paper demonstrates:
//   open      -> worm escapes to the Internet (counted, not simulated beyond that)
//   drop-all  -> perfect containment, dead epidemic (one infected VM, no behaviour)
//   reflect   -> zero escapes AND a live in-farm epidemic tracking SI dynamics
// Ablations: keyed vs random reflection (DESIGN.md §5) and reflect+rate-limit.
// The limit sits below the per-instance scan rate (0.5 pps) with a 2-token
// burst, so each infected VM's bucket empties within seconds and the limiter
// sheds scans for the rest of the outbreak.
#include <cmath>
#include <cstdio>

#include "src/analysis/series_util.h"
#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/malware/epidemic.h"

namespace potemkin {
namespace {

struct PolicyResult {
  std::string name;
  uint64_t infections = 0;
  uint64_t escapes = 0;
  uint64_t egress = 0;
  uint64_t reflections = 0;
  double t50 = -1;  // seconds to 50% of final infections
  TimeSeries curve;
};

// Token-bucket burst of the rate-limited row (no bucket exists without a rate).
constexpr double kRateLimitBurst = 2.0;

PolicyResult RunPolicy(const std::string& name, OutboundMode mode,
                       bool keyed_reflection, double rate_limit_pps,
                       const Flags& flags) {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0),
                          static_cast<int>(flags.GetUint("prefix-len", 21)));
  const double minutes = flags.GetDouble("minutes", 4.0);

  HoneyfarmConfig config = MakeDefaultFarmConfig(
      prefix, /*num_hosts=*/4, /*host_memory_mb=*/1024, ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.containment.mode = mode;
  config.gateway.containment.keyed_reflection = keyed_reflection;
  config.gateway.containment.rate_limit_pps = rate_limit_pps;
  config.gateway.containment.rate_limit_burst = kRateLimitBurst;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();

  Honeyfarm farm(config);
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = flags.GetDouble("scan-rate", 0.5);
  WormRuntime worm(&farm.loop(), worm_config, 13);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));
  // Run in chunks; stop shortly after the epidemic saturates the farm (keeps the
  // post-saturation scan storm from dominating wall-clock time).
  const TimePoint deadline = TimePoint() + Duration::Minutes(minutes);
  TimePoint saturated_at = TimePoint::Max();
  while (farm.loop().Now() < deadline) {
    farm.RunFor(Duration::Seconds(5.0));
    if (farm.epidemic().total_infections() >= prefix.NumAddresses() * 95 / 100 &&
        saturated_at == TimePoint::Max()) {
      saturated_at = farm.loop().Now();
    }
    if (saturated_at != TimePoint::Max() &&
        farm.loop().Now() - saturated_at > Duration::Seconds(10.0)) {
      break;
    }
  }

  PolicyResult result;
  result.name = name;
  result.infections = farm.epidemic().total_infections();
  result.escapes = farm.gateway().containment().stats().escapes_from_infected;
  result.egress = farm.egress_packet_count();
  result.reflections = farm.gateway().stats().reflections_injected;
  result.curve = farm.epidemic().CumulativeSeries();
  const Duration to_half = farm.epidemic().TimeToFraction(
      0.5, std::max<uint64_t>(1, result.infections));
  if (to_half != Duration::Max()) {
    result.t50 = to_half.seconds();
  }
  return result;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const double minutes = flags.GetDouble("minutes", 4.0);

  std::printf("=== F5: worm propagation under containment policies ===\n");
  std::printf("slammer-like random-scanning worm, %.0f-minute outbreak window\n\n",
              minutes);

  std::vector<PolicyResult> results;
  results.push_back(RunPolicy("open", OutboundMode::kOpen, true, 0, flags));
  std::fprintf(stderr, "  [done] open\n");
  results.push_back(RunPolicy("drop-all", OutboundMode::kDropAll, true, 0, flags));
  std::fprintf(stderr, "  [done] drop-all\n");
  results.push_back(
      RunPolicy("reflect (keyed)", OutboundMode::kReflect, true, 0, flags));
  std::fprintf(stderr, "  [done] reflect keyed\n");
  results.push_back(
      RunPolicy("reflect (random)", OutboundMode::kReflect, false, 0, flags));
  std::fprintf(stderr, "  [done] reflect random\n");
  results.push_back(
      RunPolicy("reflect+0.25 pps cap", OutboundMode::kReflect, true, 0.25, flags));
  std::fprintf(stderr, "  [done] reflect rate-limited\n");

  Table table({"policy", "in-farm infections", "escapes (infected->Internet)",
               "reflections", "t50 (s)"});
  for (const auto& r : results) {
    table.AddRow({r.name, WithCommas(r.infections), WithCommas(r.escapes),
                  WithCommas(r.reflections),
                  r.t50 >= 0 ? StrFormat("%.0f", r.t50) : "-"});
  }
  std::printf("%s\n", table.ToAscii().c_str());

  std::printf("infection curves:\n");
  std::vector<NamedSeries> curves;
  for (const auto& r : results) {
    std::printf("  %-22s |%s| final=%llu\n", r.name.c_str(),
                Sparkline(r.curve, 60, TimePoint() + Duration::Minutes(minutes))
                    .c_str(),
                static_cast<unsigned long long>(r.infections));
    curves.push_back({r.name, r.curve});
  }
  std::printf("\nfigure data (CSV):\n%s",
              AlignSeries(curves, Duration::Seconds(minutes * 60.0 / 40.0),
                          TimePoint() + Duration::Minutes(minutes))
                  .ToCsv()
                  .c_str());

  // Analytic SI comparison for the reflect-keyed run: reflection makes the whole
  // IPv4 universe collapse onto the farm prefix, so the effective contact rate is
  // scan_rate (every scan lands on some farm address).
  const auto& reflected = results[2];
  const double population = static_cast<double>(reflected.infections);
  if (population > 2 && reflected.t50 >= 0) {
    // I(t50)=N/2 in the SI model gives t50 = ln(N/I0 - 1) / (beta*N) with
    // beta*N = scan_rate, since every reflected scan lands on some farm address.
    const double scan_rate = flags.GetDouble("scan-rate", 0.5);
    const double predicted_t50 = std::log(population - 1.0) / scan_rate;
    std::printf("\nanalytic SI check (reflect keyed): measured t50=%.0fs, "
                "SI-model prediction=%.0fs (beta*N = per-instance scan rate)\n",
                reflected.t50, predicted_t50);
  }
  std::printf("\nshape check (paper): open explodes outward (escapes >> 0); "
              "drop-all is safe but inert (1 infection); reflection is safe "
              "(0 escapes) with a live logistic epidemic inside the farm.\n");

  BenchReport report("worm_containment");
  for (const auto& r : results) {
    std::string slug;
    for (const char c : r.name) {
      slug += (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ? c : '_';
    }
    // Infection counts pin the modelled epidemic under each policy: a move
    // either way is a behaviour change, so they declare no direction.
    report.Add("infections_" + slug, static_cast<double>(r.infections),
               "infections");
    report.Add("escapes_" + slug, static_cast<double>(r.escapes), "packets",
               Better::kLower);
  }
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
