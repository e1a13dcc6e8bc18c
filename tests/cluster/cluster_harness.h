/// \file cluster_harness.h
/// \brief Shared in-process cluster fixture for the cluster test suites.
///
/// Builds N named backends (each a real `LocalizationService` + manual-mode
/// `Server`) and wires a `BackendPool` transport factory that speaks to
/// them through `LoopbackTransport` — the full wire codec, zero sockets,
/// fully deterministic. Each backend has a kill switch: flipping it makes
/// every transport operation throw `ServeError`, which is what a dead TCP
/// peer looks like to the pool.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "common/assert.h"
#include "cluster/replicator.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "field/beacon_field.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/transport.h"

namespace abp::cluster {

inline BeaconField harness_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  field.add({45, 45});
  return field;
}

inline serve::ServiceConfig harness_service_config() {
  serve::ServiceConfig config;
  config.noise = 0.0;
  config.lattice_step = 2.0;
  return config;
}

/// Delegates to a loopback transport until the kill switch flips, then
/// throws like a reset TCP connection.
class SwitchableTransport final : public serve::ClientTransport {
 public:
  SwitchableTransport(serve::Server& server, std::atomic<bool>& dead)
      : inner_(server), dead_(&dead) {}

  serve::Response roundtrip(const serve::Request& request) override {
    check_alive();
    return inner_.roundtrip(request);
  }
  void send_async(const serve::Request& request,
                  std::function<void(std::string)> on_reply) override {
    check_alive();
    inner_.send_async(request, std::move(on_reply));
  }
  void flush() override {
    check_alive();
    inner_.flush();
  }
  std::string name() const override { return "switchable"; }

 private:
  void check_alive() const {
    if (dead_->load()) throw serve::ServeError("backend killed");
  }

  serve::LoopbackTransport inner_;
  std::atomic<bool>* dead_;
};

/// One in-process backend: service + server + kill switch. The server is
/// manual-mode unless `options` asks for workers.
struct BackendSim {
  explicit BackendSim(serve::ServiceConfig config = harness_service_config(),
                      serve::Server::Options options = {})
      : service(config), server(service, options) {}

  serve::LocalizationService service;
  serve::Server server;
  std::atomic<bool> dead{false};
};

/// N backends plus membership/pool/replicator/router wired like `abp route`.
struct ClusterSim {
  explicit ClusterSim(std::vector<std::string> names,
                      std::size_t replication = 1,
                      BackendPoolOptions pool_options = {},
                      RouterOptions router_options = {},
                      std::size_t log_retain = MutationLog::kDefaultRetain)
      : backend_names(names), membership(names) {
    for (const std::string& name : names) {
      sims.emplace(name, std::make_unique<BackendSim>());
    }
    pool = std::make_unique<BackendPool>(
        names, std::move(pool_options), metrics,
        [this](const std::string& backend) {
          BackendSim& sim = *sims.at(backend);
          return std::make_unique<SwitchableTransport>(sim.server, sim.dead);
        });
    replicator = std::make_unique<Replicator>(*pool, membership, replication,
                                              metrics, log_retain);
    pool->set_recovery_callback([this](const std::string& backend) {
      replicator->sync_backend(backend);
    });
    router = std::make_unique<Router>(membership, *pool, *replicator,
                                      metrics, std::move(router_options));
    pool->start();
  }

  ~ClusterSim() { pool->stop(); }

  /// Route one request through the router, blocking for the reply payload.
  std::string call(const serve::Request& request) {
    auto done = std::make_shared<std::promise<std::string>>();
    auto future = done->get_future();
    router->submit(serve::format_request(request),
                   [done](std::string payload) {
                     done->set_value(std::move(payload));
                   });
    return future.get();
  }

  /// Register a backend sim so the pool's transport factory can reach it.
  /// Must run before `admin("add", name)` — the joining backend's first
  /// snapshot install creates the transport.
  BackendSim& add_sim(const std::string& name,
                      serve::Server::Options options = {}) {
    auto [it, inserted] = sims.emplace(
        name,
        std::make_unique<BackendSim>(harness_service_config(), options));
    (void)inserted;
    return *it->second;
  }

  /// Drive the membership admin plane over the wire (the same payload the
  /// `abp route-admin` CLI sends), returning the parsed response.
  serve::Response admin(const std::string& verb,
                        const std::string& backend = "") {
    serve::Request request;
    request.endpoint = serve::Endpoint::kAdmin;
    request.algorithm = verb;
    if (!backend.empty()) request.text = backend + "\n";
    const auto response = serve::parse_response(call(request));
    ABP_CHECK(response.has_value(), "unparseable admin response");
    return *response;
  }

  BackendSim& sim(const std::string& name) { return *sims.at(name); }

  std::vector<std::string> backend_names;
  MembershipTable membership;
  serve::RouterMetrics metrics;
  std::map<std::string, std::unique_ptr<BackendSim>> sims;
  std::unique_ptr<BackendPool> pool;
  std::unique_ptr<Replicator> replicator;
  std::unique_ptr<Router> router;
};

/// Poll `pred` until true or ~2 s pass (worker threads are asynchronous).
template <typename Pred>
bool wait_until(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

}  // namespace abp::cluster
