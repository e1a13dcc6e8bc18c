/// \file route_workload.cc
/// \brief route-mixed: a `Router` in front of three backends over TCP.
///
/// Three backends (epoll transport, 1 worker each) are reached through
/// the pool's `TcpClientTransport`, with replication 2 and router defaults
/// (response cache of 1024 entries, write dedup on). Reads are zipfian
/// single-point `localize`/`error-at` over many deployments, a key space
/// larger than the cache, so the hit rate is partial. One request in ten
/// is an `add-beacon` write: it goes through the mutation log and the
/// quorum fan-out, updates the error map on each owner and invalidates the
/// deployment's cache entries. The work sits in cluster/*; loc runs only
/// lightly.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/router.h"
#include "eval/config.h"
#include "io/field_io.h"
#include "loadgen.h"
#include "oracle.h"
#include "rng/rng.h"
#include "serve/epoll_transport.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/tcp_transport.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using abp::serve::Endpoint;
using abp::serve::Request;

struct Sizes {
  std::size_t deployments = 48;
  std::size_t points_per_deployment = 64;  ///< read keys per deployment
  double zipf_exponent = 0.9;
  std::size_t write_every = 10;  ///< one request in this many is a write
  std::size_t closed_requests = 30000;
  std::size_t open_requests = 8000;
  double open_rate = 8000.0;
  std::size_t window = 8;
  std::size_t final_reads = 96;  ///< routed reads checked on the final state
};

Sizes sizes_for(const RunOptions& options) {
  Sizes sizes;
  if (options.self_test) {
    sizes.closed_requests = 600;
    sizes.open_requests = 300;
    sizes.final_reads = 24;
  }
  return sizes;
}

constexpr std::size_t kBackends = 3;
constexpr std::size_t kReplication = 2;

/// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t sample(abp::Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A running cluster: backends, pool, replicator, router and its listener.
struct Cluster {
  struct Backend {
    std::unique_ptr<abp::serve::LocalizationService> service;
    std::unique_ptr<abp::serve::Server> server;
    std::unique_ptr<TimedSink> timed;
    std::unique_ptr<abp::serve::EpollServerTransport> transport;
    std::string address;
  };
  std::vector<Backend> backends;
  abp::serve::RouterMetrics metrics;
  std::unique_ptr<abp::cluster::MembershipTable> membership;
  std::unique_ptr<abp::cluster::BackendPool> pool;
  std::unique_ptr<abp::cluster::Replicator> replicator;
  std::unique_ptr<abp::cluster::Router> router;
  std::unique_ptr<TimedSink> router_timed;
  std::unique_ptr<abp::serve::EpollServerTransport> transport;
  double sync_all_ms = 0.0;

  void stop() {
    if (transport) transport->stop();
    if (pool) pool->stop();
    for (Backend& b : backends) {
      b.transport->stop();
      b.server->shutdown();
    }
  }
  ~Cluster() { stop(); }
};

class RouteMixed final : public Workload {
 public:
  explicit RouteMixed(const RunOptions& options)
      : options_(options),
        sizes_(sizes_for(options)),
        zipf_(sizes_.deployments * sizes_.points_per_deployment,
              sizes_.zipf_exponent) {
    connections_ = std::min<std::size_t>(options.nproc, 4);
    digest_ = kDigestInit;
    const auto counts = abp::SweepConfig::paper_beacon_counts();
    for (std::size_t d = 0; d < sizes_.deployments; ++d) {
      const std::uint64_t seed = abp::derive_seed(options.seed, 20, d);
      const abp::BeaconField field = make_field(counts[d % counts.size()], seed);
      std::ostringstream text;
      abp::write_field(text, field);
      texts_.push_back(text.str());
      initial_sizes_.push_back(field.size());
      digest_ = digest_mix(digest_, seed);
    }
    abp::Rng rng(abp::derive_seed(options.seed, 21));
    // Each key is a (deployment, lattice-free point) pair; ranks are
    // shuffled so hot keys spread over deployments.
    const std::size_t keys = sizes_.deployments * sizes_.points_per_deployment;
    for (std::size_t k = 0; k < keys; ++k) {
      keys_.push_back({k % sizes_.deployments,
                       {rng.uniform(0.0, kSide), rng.uniform(0.0, kSide)}});
    }
    for (std::size_t k = keys - 1; k > 0; --k) {
      std::swap(keys_[k], keys_[rng.below(k + 1)]);
    }
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
    os << "route-mixed: " << sizes_.deployments
       << " deployments (20..240 beacons), " << kBackends
       << " backends (epoll, 1 worker), replication " << kReplication
       << ", router defaults (cache 1024, dedup on); zipf s="
       << sizes_.zipf_exponent << " over "
       << sizes_.deployments * sizes_.points_per_deployment
       << " single-point read keys; 1 in " << sizes_.write_every
       << " add-beacon; closed loop " << sizes_.closed_requests
       << " requests on " << connections_ << " conns x window "
       << sizes_.window << "; open loop " << sizes_.open_requests
       << " requests at " << sizes_.open_rate << " req/s";
    return os.str();
  }

  std::uint64_t input_digest() const override { return digest_; }

  Round round(SpanLog* trace, LayerMetrics* layers, Result& result) override {
    Round r;
    Cluster cluster;
    const double t0 = now_s();
    start_cluster(cluster, trace);
    PhaseResult closed, open;
    abp::MetricsSnapshot stats("");
    {
      LoadGen gen(cluster.transport->port(), connections_);
      r.setup_s = now_s() - t0;
      closed = gen.closed_loop(closed_frames_, sizes_.window, 0);
      open = gen.open_loop(open_frames_, sizes_.open_rate, 0);
    }
    if (trace != nullptr) stats = fetch_stats(cluster.transport->port());
    verify_final(cluster, {&closed, &open}, result);
    cluster.stop();

    r.ops_per_s = static_cast<double>(closed.ok) / closed.wall_s;
    r.busy_s = closed.wall_s;
    r.latency_ms = open.latency_ms;
    r.attempted = closed_requests_.size() + open_requests_.size();
    r.failed = closed.failed + open.failed;
    if (trace != nullptr && layers != nullptr) {
      layer_metrics(*trace, cluster, stats, open, *layers);
    }
    return r;
  }

  void run_checks(Result&) override {}

  void self_test_perturbations(Result& result) override {
    // A snapshot set with one byte changed, or one beacon too many, and a
    // routed read nudged off the brute-force answer must all be rejected.
    const std::vector<std::string> same = {texts_[0], texts_[0]};
    result.check(snapshots_agree(same, initial_sizes_[0]),
                 "self-test: identical snapshots rejected");
    std::vector<std::string> changed = same;
    changed[1][changed[1].size() / 2] ^= 1;
    result.check(!snapshots_agree(changed, initial_sizes_[0]),
                 "self-test: differing snapshots accepted");
    result.check(!snapshots_agree(same, initial_sizes_[0] + 1),
                 "self-test: snapshot with a missing beacon accepted");
    std::istringstream in(texts_[0]);
    const std::vector<abp::Beacon> beacons =
        oracle::active_beacons(abp::read_field(in));
    Request request;
    request.endpoint = Endpoint::kErrorAt;
    request.points = {{50.0, 50.0}};
    abp::serve::Response reply;
    reply.errors = {oracle::localize(beacons, abp::IdealDiskModel(kRange),
                                     request.points[0]).error};
    result.check(reply_matches(request, reply, beacons),
                 "self-test: brute-force routed read rejected");
    reply.errors[0] += 1e-6;
    result.check(!reply_matches(request, reply, beacons),
                 "self-test: perturbed routed read accepted");
  }

 private:
  struct Key {
    std::size_t deployment;
    abp::Vec2 point;
  };

  static std::string name(std::size_t d) { return "f" + std::to_string(d); }

  std::vector<Request> make_requests(std::size_t n, abp::Rng& rng) {
    std::vector<Request> out(n);
    for (Request& request : out) {
      const Key& key = keys_[zipf_.sample(rng)];
      request.field = name(key.deployment);
      if (rng.below(sizes_.write_every) == 0) {
        request.endpoint = Endpoint::kAddBeacon;
        request.points = {{rng.uniform(0.0, kSide), rng.uniform(0.0, kSide)}};
        request.request_id = ++next_request_id_;
      } else {
        request.endpoint =
            rng.below(2) == 0 ? Endpoint::kLocalize : Endpoint::kErrorAt;
        request.points = {key.point};
      }
    }
    return out;
  }

  void start_cluster(Cluster& c, SpanLog* trace) {
    abp::serve::ServiceConfig config;
    config.nominal_range = kRange;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kBackends; ++i) {
      Cluster::Backend b;
      b.service = std::make_unique<abp::serve::LocalizationService>(config);
      abp::serve::Server::Options options;
      options.workers = 1;
      b.server = std::make_unique<abp::serve::Server>(*b.service, options);
      abp::serve::FrameSink* sink = b.server.get();
      if (trace != nullptr) {
        b.timed = std::make_unique<TimedSink>(*b.server, *trace,
                                              "cluster.backend_server.sojourn");
        sink = b.timed.get();
      }
      b.transport = std::make_unique<abp::serve::EpollServerTransport>(*sink);
      b.transport->start();
      b.address = "127.0.0.1:" + std::to_string(b.transport->port());
      names.push_back(b.address);
      c.backends.push_back(std::move(b));
    }
    c.membership = std::make_unique<abp::cluster::MembershipTable>(names);
    abp::cluster::BackendPool::TransportFactory factory;
    if (trace != nullptr) {
      const double timeout_s = abp::cluster::BackendPoolOptions{}.connect_timeout_s;
      factory = [trace, timeout_s](const std::string& backend)
          -> std::unique_ptr<abp::serve::ClientTransport> {
        const auto [host, port] = abp::cluster::parse_backend_address(backend);
        return std::make_unique<TimedClientTransport>(
            std::make_unique<abp::serve::TcpClientTransport>(host, port,
                                                             timeout_s),
            *trace);
      };
    }
    c.pool = std::make_unique<abp::cluster::BackendPool>(
        names, abp::cluster::BackendPoolOptions{}, c.metrics, factory);
    c.replicator = std::make_unique<abp::cluster::Replicator>(
        *c.pool, *c.membership, kReplication, c.metrics);
    abp::cluster::Replicator* replicator = c.replicator.get();
    c.pool->set_recovery_callback([replicator](const std::string& backend) {
      replicator->sync_backend(backend);
    });
    c.router = std::make_unique<abp::cluster::Router>(
        *c.membership, *c.pool, *c.replicator, c.metrics);
    c.pool->start();
    for (std::size_t d = 0; d < texts_.size(); ++d) {
      c.replicator->set_deployment(name(d), texts_[d]);
    }
    const double t = now_s();
    c.replicator->sync_all();
    c.sync_all_ms = (now_s() - t) * 1e3;
    abp::serve::FrameSink* sink = c.router.get();
    if (trace != nullptr) {
      c.router_timed =
          std::make_unique<TimedSink>(*c.router, *trace, "cluster.router.sojourn");
      sink = c.router_timed.get();
    }
    c.transport = std::make_unique<abp::serve::EpollServerTransport>(*sink);
    c.transport->start();
  }

  /// Every owner's snapshot equal byte for byte, holding the initial
  /// beacons plus one per acked write.
  static bool snapshots_agree(const std::vector<std::string>& snapshots,
                              std::size_t expected_beacons) {
    if (snapshots.empty()) return false;
    for (const std::string& s : snapshots) {
      if (s != snapshots.front()) return false;
    }
    try {
      std::istringstream in(snapshots.front());
      return abp::read_field(in).size() == expected_beacons;
    } catch (const std::exception&) {
      return false;
    }
  }

  void verify_final(Cluster& c, std::vector<const PhaseResult*> phases,
                    Result& result) {
    std::vector<std::size_t> acked(texts_.size(), 0);
    const std::vector<const std::vector<Request>*> lists = {&closed_requests_,
                                                            &open_requests_};
    for (std::size_t p = 0; p < lists.size(); ++p) {
      for (std::size_t i = 0; i < lists[p]->size(); ++i) {
        const Request& request = (*lists[p])[i];
        if (request.endpoint == Endpoint::kAddBeacon && phases[p]->ok_flags[i]) {
          ++acked[std::stoul(request.field.substr(1))];
        }
      }
    }
    std::size_t bad_snapshots = 0, bad_reads = 0;
    std::vector<std::vector<abp::Beacon>> finals(texts_.size());
    for (std::size_t d = 0; d < texts_.size(); ++d) {
      std::vector<std::string> snapshots;
      for (const std::string& owner : c.replicator->owners(name(d))) {
        const auto [host, port] = abp::cluster::parse_backend_address(owner);
        Request request;
        request.endpoint = Endpoint::kSnapshot;
        request.field = name(d);
        const auto reply = abp::serve::parse_response(
            request_reply(port, abp::serve::format_request(request)));
        snapshots.push_back(reply && reply->status == abp::serve::Status::kOk
                                ? reply->text
                                : std::string());
      }
      if (!snapshots_agree(snapshots, initial_sizes_[d] + acked[d])) {
        ++bad_snapshots;
        continue;
      }
      std::istringstream in(snapshots.front());
      finals[d] = oracle::active_beacons(abp::read_field(in));
    }
    result.check(bad_snapshots == 0,
                 "route-mixed: " + std::to_string(bad_snapshots) +
                     " deployments whose owners disagree or miss acked writes");
    // Routed reads of the final state, through the router's listener.
    abp::Rng rng(abp::derive_seed(options_.seed, 22));
    for (std::size_t i = 0; i < sizes_.final_reads; ++i) {
      const Key& key = keys_[zipf_.sample(rng)];
      Request request;
      request.endpoint = i % 2 == 0 ? Endpoint::kLocalize : Endpoint::kErrorAt;
      request.field = name(key.deployment);
      request.points = {key.point};
      request.seq = 1000000 + i;
      const auto reply = abp::serve::parse_response(request_reply(
          c.transport->port(), abp::serve::format_request(request)));
      if (!reply || !reply_matches(request, *reply, finals[key.deployment])) {
        ++bad_reads;
      }
    }
    result.check(bad_reads == 0,
                 "route-mixed: " + std::to_string(bad_reads) +
                     " routed reads of the final state differ from brute force");
  }

  void layer_metrics(const SpanLog& trace, const Cluster& c,
                     const abp::MetricsSnapshot& stats, const PhaseResult& open,
                     LayerMetrics& out) const {
    const std::uint64_t first_open = open_requests_.front().seq;
    std::map<std::uint64_t, double> forward_us;
    std::vector<double> rtt, backend;
    for (const Span& s : trace.spans()) {
      if (s.name == kForwardRead || s.name == kForwardMutate) {
        rtt.push_back(s.us());
        if (s.name == kForwardRead) forward_us[s.id] = s.us();
      } else if (s.name == "cluster.backend_server.sojourn") {
        backend.push_back(s.us());
      }
    }
    std::vector<double> reads, writes, self;
    for (const Span& s : trace.spans()) {
      if (s.name != "cluster.router.sojourn" || s.id < first_open) continue;
      const std::size_t i = s.id - first_open;
      if (i >= open_requests_.size()) continue;
      if (open_requests_[i].endpoint == Endpoint::kAddBeacon) {
        writes.push_back(s.us());
      } else {
        reads.push_back(s.us());
        const auto f = forward_us.find(s.id);
        self.push_back(s.us() - (f == forward_us.end() ? 0.0 : f->second));
      }
    }
    put(out, "cluster.router.read_sojourn_p50_us", quantile(reads, 0.5), "us",
        reads.size());
    put(out, "cluster.router.read_sojourn_p99_us", quantile(reads, 0.99), "us",
        reads.size());
    put(out, "cluster.router.write_sojourn_p50_us", quantile(writes, 0.5), "us",
        writes.size());
    put(out, "cluster.router.write_sojourn_p99_us", quantile(writes, 0.99), "us",
        writes.size());
    put(out, "cluster.router.self_p50_us", quantile(self, 0.5), "us",
        self.size());
    put(out, "cluster.backend_pool.forward_rtt_p50_us", quantile(rtt, 0.5),
        "us", rtt.size());
    put(out, "cluster.backend_pool.forward_rtt_p99_us", quantile(rtt, 0.99),
        "us", rtt.size());
    put(out, "cluster.backend_server.sojourn_p50_us", quantile(backend, 0.5),
        "us", backend.size());
    put(out, "cluster.backend_server.sojourn_p99_us", quantile(backend, 0.99),
        "us", backend.size());
    const double received = stats.value("router.received");
    put(out, "cluster.backend_pool.forwards_per_request",
        received > 0 ? stats.value("router.forwarded") / received : 0.0,
        "forwards", static_cast<std::size_t>(received));
    const double hits = stats.value("cache.hits");
    const double lookups = hits + stats.value("cache.misses");
    put(out, "cluster.response_cache.hit_rate",
        lookups > 0 ? hits / lookups : 0.0, "ratio",
        static_cast<std::size_t>(lookups));
    const double acked = stats.value("writes.acked");
    put(out, "cluster.response_cache.invalidations_per_write",
        acked > 0 ? stats.value("cache.entries-invalidated") / acked : 0.0,
        "entries", static_cast<std::size_t>(acked));
    double mutations = 0.0;
    for (const auto& [name, value] : stats.entries()) {
      if (name.starts_with("backend.") && name.ends_with(".mutations")) {
        mutations += value;
      }
    }
    const double writes_submitted = stats.value("writes.submitted");
    put(out, "cluster.replicator.mutations_per_write",
        writes_submitted > 0 ? mutations / writes_submitted : 0.0, "mutations",
        static_cast<std::size_t>(writes_submitted));
    put(out, "cluster.replicator.sync_all_ms", c.sync_all_ms, "ms", 1);
    put(out, "bench.generator.lateness_p99_ms",
        quantile(open.lateness_ms, 0.99), "ms", open.lateness_ms.size());
  }

  RunOptions options_;
  Sizes sizes_;
  Zipf zipf_;
  std::size_t connections_ = 1;
  std::vector<std::string> texts_;
  std::vector<std::size_t> initial_sizes_;
  std::vector<Key> keys_;
  std::uint64_t next_request_id_ = 0;
  std::vector<Request> closed_requests_, open_requests_;
  std::vector<std::string> closed_frames_, open_frames_;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_route_mixed(const RunOptions& options) {
  return std::make_unique<RouteMixed>(options);
}

}  // namespace perfbench
