/// \file serve_workload.cc
/// \brief serve-points: one in-process `Server` over loopback TCP.
///
/// The server runs the epoll transport and a 2-worker pool, the batching
/// path whose worker scaling is in question. Its deployments are noise-0
/// fields at paper densities. One generator thread sends multi-point
/// `localize` and `error-at` requests over pipelined connections: first a
/// closed loop (connections x window) for goodput, then an open loop at a
/// fixed rate below capacity for latency. The work sits in
/// serve/protocol, serve/server batching, serve/service and the survey
/// kernel; cluster and placement are not used.
#include <sstream>

#include "loadgen.h"
#include "oracle.h"
#include "rng/rng.h"
#include "serve/epoll_transport.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using abp::serve::Endpoint;
using abp::serve::Request;

struct Sizes {
  std::size_t points_per_request = 16;
  std::size_t closed_requests = 90000;
  std::size_t open_requests = 10000;
  double open_rate = 10000.0; ///< requests per second
  std::size_t window = 8;     ///< requests in flight per connection
  std::size_t keep_every = 25;  ///< verify every k-th reply
};

/// Beacon counts of the deployments: paper densities, 20..240.
constexpr std::size_t kCounts[] = {20, 50, 80, 110, 140, 170, 200, 240};
constexpr std::size_t kWorkers = 2;

class ServePoints final : public Workload {
 public:
  explicit ServePoints(const RunOptions& options) {
    if (options.self_test) {
      sizes_.closed_requests = 400;
      sizes_.open_requests = 200;
      sizes_.keep_every = 5;
    }
    connections_ = std::min<std::size_t>(options.nproc, 4);
    digest_ = kDigestInit;
    for (std::size_t d = 0; d < std::size(kCounts); ++d) {
      const std::uint64_t seed = abp::derive_seed(options.seed, 10, d);
      fields_.push_back(make_field(kCounts[d], seed));
      beacons_.push_back(oracle::active_beacons(fields_.back()));
      digest_ = digest_mix(digest_, seed);
    }
    abp::Rng rng(abp::derive_seed(options.seed, 11));
    closed_requests_ = make_requests(sizes_.closed_requests, rng);
    open_requests_ = make_requests(sizes_.open_requests, rng);
    closed_frames_ = encode_all(closed_requests_, 1);
    open_frames_ = encode_all(open_requests_, 1 + sizes_.closed_requests);
    for (const auto* frames : {&closed_frames_, &open_frames_}) {
      for (const std::string& f : *frames) {
        for (char c : f) digest_ = digest_mix(digest_, static_cast<unsigned char>(c));
      }
    }
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "serve-points: " << std::size(kCounts)
       << " noise-0 deployments (20..240 beacons); "
       << sizes_.points_per_request << " points/request, localize:error-at 1:1;"
       << " closed loop " << sizes_.closed_requests << " requests on "
       << connections_ << " conns x window " << sizes_.window
       << "; open loop " << sizes_.open_requests << " requests at "
       << sizes_.open_rate << " req/s; server epoll, " << kWorkers
       << " workers, batch 16";
    return os.str();
  }

  std::uint64_t input_digest() const override { return digest_; }

  Round round(SpanLog* trace, LayerMetrics* layers, Result& result) override {
    Round r;
    const double t0 = now_s();
    abp::serve::ServiceConfig config;
    config.nominal_range = kRange;
    abp::serve::LocalizationService service(config);
    std::vector<double> add_ms;
    for (std::size_t d = 0; d < fields_.size(); ++d) {
      const double t = now_s();
      service.add_field(name(d), fields_[d]);
      add_ms.push_back((now_s() - t) * 1e3);
    }
    abp::serve::Server::Options server_options;
    server_options.workers = kWorkers;
    abp::serve::Server server(service, server_options);
    std::unique_ptr<TimedSink> timed;
    abp::serve::FrameSink* sink = &server;
    if (trace != nullptr) {
      timed = std::make_unique<TimedSink>(server, *trace, "serve.server.sojourn");
      sink = timed.get();
    }
    abp::serve::EpollServerTransport transport(*sink);
    transport.start();
    PhaseResult closed, open;
    abp::MetricsSnapshot stats("");
    {
      LoadGen gen(transport.port(), connections_);
      r.setup_s = now_s() - t0;
      closed = gen.closed_loop(closed_frames_, sizes_.window, sizes_.keep_every);
      open = gen.open_loop(open_frames_, sizes_.open_rate, sizes_.keep_every);
    }
    if (trace != nullptr) stats = fetch_stats(transport.port());
    transport.stop();
    server.shutdown();

    r.ops_per_s = static_cast<double>(closed.ok) / closed.wall_s;
    r.busy_s = closed.wall_s;
    r.latency_ms = open.latency_ms;
    r.attempted = closed_requests_.size() + open_requests_.size();
    r.failed = closed.failed + open.failed;
    verify(closed_requests_, closed, result);
    verify(open_requests_, open, result);
    if (trace != nullptr && layers != nullptr) {
      layer_metrics(*trace, *timed, stats, open, add_ms, *layers);
    }
    return r;
  }

  void run_checks(Result&) override {}

  void self_test_perturbations(Result& result) override {
    // Take verified replies of both endpoints and nudge one value each.
    abp::serve::ServiceConfig config;
    config.nominal_range = kRange;
    abp::serve::LocalizationService service(config);
    for (std::size_t d = 0; d < fields_.size(); ++d) {
      service.add_field(name(d), fields_[d]);
    }
    bool localize_seen = false, error_seen = false;
    for (const Request& request : closed_requests_) {
      abp::serve::Response reply = service.handle(request);
      const auto& beacons = beacons_[deployment_of(request)];
      result.check(reply_matches(request, reply, beacons),
                   "self-test: unperturbed serve reply rejected");
      if (request.endpoint == Endpoint::kLocalize && !localize_seen) {
        localize_seen = true;
        reply.estimates.back().estimate.x += 1e-6;
        result.check(!reply_matches(request, reply, beacons),
                     "self-test: perturbed localize reply accepted");
      } else if (request.endpoint == Endpoint::kErrorAt && !error_seen) {
        error_seen = true;
        reply.errors.front() += 1e-6;
        result.check(!reply_matches(request, reply, beacons),
                     "self-test: perturbed error-at reply accepted");
      }
      if (localize_seen && error_seen) break;
    }
  }

 private:
  static std::string name(std::size_t d) { return "d" + std::to_string(d); }
  static std::size_t deployment_of(const Request& request) {
    return static_cast<std::size_t>(std::stoul(request.field.substr(1)));
  }

  std::vector<Request> make_requests(std::size_t n, abp::Rng& rng) const {
    std::vector<Request> out(n);
    for (Request& request : out) {
      request.endpoint =
          rng.below(2) == 0 ? Endpoint::kLocalize : Endpoint::kErrorAt;
      request.field = name(rng.below(fields_.size()));
      for (std::size_t p = 0; p < sizes_.points_per_request; ++p) {
        request.points.push_back({rng.uniform(0.0, kSide),
                                  rng.uniform(0.0, kSide)});
      }
    }
    return out;
  }

  void verify(const std::vector<Request>& requests, const PhaseResult& phase,
              Result& result) const {
    std::size_t bad = 0, seen = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (phase.replies[i].empty()) continue;
      ++seen;
      const auto reply = abp::serve::parse_response(phase.replies[i]);
      if (!reply || reply->seq != requests[i].seq ||
          !reply_matches(requests[i], *reply,
                         beacons_[deployment_of(requests[i])])) {
        ++bad;
      }
    }
    result.check(seen > 0 && bad == 0,
                 "serve-points: " + std::to_string(bad) + " of " +
                     std::to_string(seen) +
                     " sampled replies differ from brute force");
  }

  void layer_metrics(const SpanLog& trace, const TimedSink& sink,
                     const abp::MetricsSnapshot& stats,
                     const PhaseResult& open, const std::vector<double>& add_ms,
                     LayerMetrics& out) const {
    // Server sojourn and transport overhead, open-loop requests only.
    const std::uint64_t first_open = open_requests_.front().seq;
    std::vector<double> sojourn, overhead;
    for (const Span& s : trace.spans()) {
      if (s.name != "serve.server.sojourn" || s.id < first_open) continue;
      const std::size_t i = s.id - first_open;
      if (i >= open_requests_.size()) continue;
      sojourn.push_back(s.us());
      overhead.push_back(open.latency_ms[i] * 1e3 - s.us());
    }
    put(out, "serve.server.sojourn_p50_us", quantile(sojourn, 0.5), "us",
        sojourn.size());
    put(out, "serve.server.sojourn_p99_us", quantile(sojourn, 0.99), "us",
        sojourn.size());
    put(out, "serve.transport.overhead_p50_us", quantile(overhead, 0.5), "us",
        overhead.size());
    const double batches = stats.value("total.batches");
    put(out, "serve.server.requests_per_batch",
        batches > 0 ? stats.value("total.coalesced") / batches : 0.0,
        "requests", static_cast<std::size_t>(batches));
    put(out, "serve.server.queue_depth_max",
        static_cast<double>(sink.max_inside()), "requests", 1);
    put(out, "serve.service.add_field_ms", median(add_ms), "ms", add_ms.size());
    put(out, "bench.generator.lateness_p99_ms",
        quantile(open.lateness_ms, 0.99), "ms", open.lateness_ms.size());

    // Replays on the round's own requests: the service batch path as the
    // server forms batches (same deployment, up to 16), then the codec.
    abp::serve::ServiceConfig config;
    config.nominal_range = kRange;
    abp::serve::LocalizationService service(config);
    for (std::size_t d = 0; d < fields_.size(); ++d) {
      service.add_field(name(d), fields_[d]);
    }
    std::vector<std::vector<Request>> by_field(fields_.size());
    for (const Request& request : closed_requests_) {
      by_field[deployment_of(request)].push_back(request);
    }
    std::vector<double> per_point;
    std::vector<abp::serve::Response> responses;
    for (const auto& list : by_field) {
      for (std::size_t i = 0; i < list.size(); i += 16) {
        const std::size_t n = std::min<std::size_t>(16, list.size() - i);
        const std::span<const Request> batch(list.data() + i, n);
        const double t = now_s();
        std::vector<abp::serve::Response> got = service.handle_batch(batch);
        per_point.push_back((now_s() - t) * 1e6 /
                            static_cast<double>(n * sizes_.points_per_request));
        for (auto& g : got) responses.push_back(std::move(g));
      }
    }
    put(out, "serve.service.handle_batch_us_per_point", median(per_point), "us",
        per_point.size());
    std::vector<std::string> payloads;
    for (const Request& request : closed_requests_) {
      payloads.push_back(abp::serve::format_request(request));
    }
    double t = now_s();
    for (const std::string& p : payloads) abp::serve::parse_request(p);
    const double parse_us = (now_s() - t) * 1e6 / payloads.size();
    std::vector<std::string> formatted;
    t = now_s();
    for (const auto& response : responses) {
      formatted.push_back(abp::serve::format_response(response));
    }
    const double format_us = (now_s() - t) * 1e6 / responses.size();
    t = now_s();
    for (std::size_t i = 0; i < closed_requests_.size(); ++i) {
      abp::serve::encode_frame(abp::serve::format_request(closed_requests_[i]));
      abp::serve::parse_response(formatted[i % formatted.size()]);
    }
    const double client_us = (now_s() - t) * 1e6 / closed_requests_.size();
    put(out, "serve.protocol.parse_request_us", parse_us, "us", payloads.size());
    put(out, "serve.protocol.format_response_us", format_us, "us",
        responses.size());
    put(out, "serve.protocol.client_codec_us", client_us, "us",
        closed_requests_.size());
  }

  Sizes sizes_;
  std::size_t connections_ = 1;
  std::vector<abp::BeaconField> fields_;
  std::vector<std::vector<abp::Beacon>> beacons_;
  std::vector<Request> closed_requests_, open_requests_;
  std::vector<std::string> closed_frames_, open_frames_;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_points(const RunOptions& options) {
  return std::make_unique<ServePoints>(options);
}

}  // namespace perfbench
