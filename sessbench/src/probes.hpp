// probes.hpp — layer timings that need no running world.
#ifndef SESSBENCH_PROBES_HPP
#define SESSBENCH_PROBES_HPP

#include <cstdint>

#include "common.hpp"

namespace sessbench {

struct CodecTimings {
  double encode_ns = 0.0;        // msg/codec.hpp encode, per message
  double decode_ns = 0.0;        // msg/codec.hpp decode, per message
  double encode_frame_ns = 0.0;  // net/wire.hpp encode_frame, per message
  double decode_frame_ns = 0.0;  // net/wire.hpp decode_frame, per message
  int mismatches = 0;            // round trips that did not reproduce
};

CodecTimings time_codec(std::uint64_t seed);

}  // namespace sessbench

#endif  // SESSBENCH_PROBES_HPP
