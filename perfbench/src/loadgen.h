/// \file loadgen.h
/// \brief Load generator: one thread driving pipelined loopback TCP
/// connections with pre-encoded request frames.
///
/// Two phases share one poll loop:
///  * closed loop — every connection keeps `window` requests in flight and
///    sends the next only when a reply returns; goodput is ok replies over
///    the phase's wall time;
///  * open loop — request i is due at `i / rate` seconds after the start,
///    whatever the replies do, on connection `i % connections`; its latency
///    runs from when it was due, so a stall is charged to every request it
///    delays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics_snapshot.h"

namespace perfbench {

struct PhaseResult {
  double wall_s = 0.0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;   ///< per request, in request order
  std::vector<char> ok_flags;       ///< per request: answered ok
  std::vector<double> lateness_ms;  ///< open loop: send time minus due time
  std::vector<std::string> replies; ///< kept payloads ("" where not kept)
};

class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Closed loop with `window` requests in flight per connection. The reply
  /// payload of request i is kept when i % keep_every == 0.
  PhaseResult closed_loop(const std::vector<std::string>& frames,
                          std::size_t window, std::size_t keep_every);
  /// Open loop at `rate` requests per second.
  PhaseResult open_loop(const std::vector<std::string>& frames, double rate,
                        std::size_t keep_every);

 private:
  PhaseResult run(const std::vector<std::string>& frames, bool open,
                  std::size_t window, double rate, std::size_t keep_every);
  std::vector<int> fds_;
};

/// One synchronous request/response exchange on a fresh connection;
/// returns the response payload.
std::string request_reply(std::uint16_t port, const std::string& request_payload);

/// The `stats` endpoint's text body, parsed back into name/value pairs.
abp::MetricsSnapshot fetch_stats(std::uint16_t port);

}  // namespace perfbench
