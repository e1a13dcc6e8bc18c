#include "serving.h"

#include <cmath>

#include "field/generators.h"
#include "oracle.h"
#include "radio/propagation.h"
#include "rng/rng.h"

namespace perfbench {

using abp::serve::Endpoint;

abp::BeaconField make_field(std::size_t count, std::uint64_t seed) {
  abp::BeaconField field(abp::AABB::square(kSide), kRange);
  abp::Rng rng(seed);
  abp::scatter_uniform(field, count, rng);
  return field;
}

std::uint64_t payload_seq(std::string_view payload) {
  // "abp-request 1 <seq> ..." / "abp-response 1 <seq> ...": third token.
  std::size_t pos = 0;
  for (int skip = 0; skip < 2; ++skip) {
    pos = payload.find(' ', pos);
    if (pos == std::string_view::npos) return 0;
    ++pos;
  }
  std::uint64_t seq = 0;
  while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9') {
    seq = seq * 10 + static_cast<std::uint64_t>(payload[pos++] - '0');
  }
  return seq;
}

bool reply_matches(const abp::serve::Request& request,
                   const abp::serve::Response& reply,
                   const std::vector<abp::Beacon>& beacons) {
  if (reply.status != abp::serve::Status::kOk) return false;
  const abp::IdealDiskModel model(kRange);
  const std::size_t n = request.points.size();
  if (request.endpoint == Endpoint::kLocalize) {
    if (reply.estimates.size() != n) return false;
  } else if (request.endpoint == Endpoint::kErrorAt) {
    if (reply.errors.size() != n) return false;
  } else {
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const oracle::Fix fix = oracle::localize(beacons, model, request.points[i]);
    if (request.endpoint == Endpoint::kLocalize) {
      const abp::serve::PointEstimate& e = reply.estimates[i];
      if (e.connected != fix.connected ||
          std::abs(e.estimate.x - fix.estimate.x) > 1e-9 ||
          std::abs(e.estimate.y - fix.estimate.y) > 1e-9) {
        return false;
      }
    } else if (std::abs(reply.errors[i] - fix.error) > 1e-9) {
      return false;
    }
  }
  return true;
}

void TimedSink::submit(std::string payload,
                       std::function<void(std::string)> reply) {
  const double t0 = now_s();
  const std::uint64_t seq = payload_seq(payload);
  const std::size_t inside = inside_.fetch_add(1) + 1;
  std::size_t seen = max_inside_.load();
  while (inside > seen && !max_inside_.compare_exchange_weak(seen, inside)) {
  }
  inner_.submit(std::move(payload),
                [this, t0, seq, reply = std::move(reply)](std::string out) {
                  log_.record({span_, "", seq, t0, now_s()});
                  inside_.fetch_sub(1);
                  reply(std::move(out));
                });
}

abp::serve::Response TimedClientTransport::roundtrip(
    const abp::serve::Request& request) {
  return inner_->roundtrip(request);
}

void TimedClientTransport::send_async(
    const abp::serve::Request& request,
    std::function<void(std::string)> on_reply_frame) {
  const char* span = "cluster.backend_pool.forward.other";
  if (request.endpoint == Endpoint::kLocalize ||
      request.endpoint == Endpoint::kErrorAt) {
    span = kForwardRead;
  } else if (request.endpoint == Endpoint::kMutate) {
    span = kForwardMutate;
  }
  const double t0 = now_s();
  const std::uint64_t seq = request.seq;
  inner_->send_async(
      request, [this, t0, seq, span,
                cb = std::move(on_reply_frame)](std::string frame) {
        log_.record({span, "cluster.router", seq, t0, now_s()});
        cb(std::move(frame));
      });
}

std::vector<std::string> encode_all(std::vector<abp::serve::Request>& requests,
                                    std::uint64_t first_seq) {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].seq = first_seq + i;
    frames.push_back(
        abp::serve::encode_frame(abp::serve::format_request(requests[i])));
  }
  return frames;
}

}  // namespace perfbench
