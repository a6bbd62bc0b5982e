// Seeded input generation for the three workloads, and the conversion of
// the benchmark's input description into the program's StreamElements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "stream/schema.h"
#include "stream/stream_element.h"

namespace spbench {

/// Open-loop pacing of wire_feed: ticks per second and tuples per tick.
constexpr int kWireTicksPerSecond = 1000;
constexpr int kWireTuplesPerTick = 16;

/// The canonical windowed join: 20k tuples per stream per Run, RANGE 4000,
/// 4,096 keys, an sp every 400 tuples granting 8 of 16 roles plus role0.
InputSpec JoinWindowInput(uint64_t seed);
/// The moving-objects location stream with tuple-range sps (|R| = 10 of
/// 100 roles, a share negative) and four subjects' region queries.
InputSpec PolicyChurnInput(uint64_t seed);
/// Small batches, each headed by a stream-wide sp, for the loopback server.
InputSpec WireFeedInput(uint64_t seed);

/// The input of a named workload; an empty spec for an unknown name.
InputSpec MakeInput(const std::string& workload, uint64_t seed);

spstream::SchemaPtr SchemaOf(const StreamSpec& stream);

/// The program's elements for one chunk (fresh copies on every call).
std::vector<spstream::StreamElement> ToElements(const InputSpec& input,
                                                const Chunk& chunk);

}  // namespace spbench
