/// \file serving.h
/// \brief Pieces the two serving workloads share: seeded deployments,
/// reply verification against the brute-force oracle, and the timing
/// decorators that sit on the program's public seams (`FrameSink` between
/// a transport and a `Server` or `Router`, `ClientTransport` inside the
/// `BackendPool` transport factory).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "field/beacon_field.h"
#include "serve/frame_sink.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace perfbench {

/// The paper's terrain and range, as the serving configuration uses them.
inline constexpr double kSide = 100.0;
inline constexpr double kRange = 15.0;

/// A uniform random field of `count` beacons over the paper's terrain.
abp::BeaconField make_field(std::size_t count, std::uint64_t seed);

/// The wire seq of a request or response payload ("abp-... 1 <seq> ...").
std::uint64_t payload_seq(std::string_view payload);

/// True when `reply` answers the point query `request` exactly as
/// centroid localization over `beacons` with an ideal disk of `kRange`
/// does, every coordinate and error within 1e-9 m.
bool reply_matches(const abp::serve::Request& request,
                   const abp::serve::Response& reply,
                   const std::vector<abp::Beacon>& beacons);

/// Times each request from `submit` to its reply, keyed by wire seq, and
/// tracks the most requests inside the wrapped sink at once.
class TimedSink final : public abp::serve::FrameSink {
 public:
  TimedSink(abp::serve::FrameSink& inner, SpanLog& log, std::string span)
      : inner_(inner), log_(log), span_(std::move(span)) {}

  void submit(std::string payload,
              std::function<void(std::string)> reply) override;
  void shed_overloaded(std::string payload,
                       std::function<void(std::string)> reply,
                       const std::string& why) override {
    inner_.shed_overloaded(std::move(payload), std::move(reply), why);
  }
  void record_bad_frame(std::size_t bytes_in) override {
    inner_.record_bad_frame(bytes_in);
  }
  double now_ms() const override { return inner_.now_ms(); }
  void pump_ready() override { inner_.pump_ready(); }

  std::size_t max_inside() const { return max_inside_.load(); }

 private:
  abp::serve::FrameSink& inner_;
  SpanLog& log_;
  std::string span_;
  std::atomic<std::size_t> inside_{0};
  std::atomic<std::size_t> max_inside_{0};
};

/// Times each pipelined forward from `send_async` to its reply callback.
class TimedClientTransport final : public abp::serve::ClientTransport {
 public:
  TimedClientTransport(std::unique_ptr<abp::serve::ClientTransport> inner,
                       SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  abp::serve::Response roundtrip(const abp::serve::Request& request) override;
  void send_async(const abp::serve::Request& request,
                  std::function<void(std::string)> on_reply_frame) override;
  void flush() override { inner_->flush(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<abp::serve::ClientTransport> inner_;
  SpanLog& log_;
};

/// Span names: a forward is "cluster.backend_pool.forward.read" for
/// point queries and ".mutate" for replicated writes.
inline constexpr const char* kForwardRead = "cluster.backend_pool.forward.read";
inline constexpr const char* kForwardMutate =
    "cluster.backend_pool.forward.mutate";

/// Wire frames of `requests`, seq numbered from `first_seq`.
std::vector<std::string> encode_all(std::vector<abp::serve::Request>& requests,
                                    std::uint64_t first_seq);

}  // namespace perfbench
