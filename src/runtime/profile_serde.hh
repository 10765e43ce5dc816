/**
 * @file
 * Binary serialization of ProfileResult for the on-disk profile cache.
 *
 * Serializes every field of a ProfileResult — totals, breakdowns,
 * attention statistics, sequence-length trace, per-stage reports — so
 * a result round-trips whole. Doubles round-trip bit-exactly via their
 * raw bit patterns: a warm disk-cache load reproduces the cold run's
 * report bytes, which is the tier's correctness contract.
 *
 * The format is host-endian and only ever read back on the machine
 * that wrote it; DiskProfileCache's versioned, checksummed envelope
 * rejects anything else as a miss.
 */

#ifndef MMGEN_RUNTIME_PROFILE_SERDE_HH
#define MMGEN_RUNTIME_PROFILE_SERDE_HH

#include <string>
#include <string_view>

#include "profiler/engine.hh"

namespace mmgen::runtime {

/** Serialize a profile result. */
std::string serializeProfileResult(
    const profiler::ProfileResult& result);

/**
 * Rebuild a profile result from serialized bytes. Returns false (and
 * leaves `out` unspecified) on any structural mismatch — truncation,
 * trailing bytes, out-of-range enum values.
 */
bool deserializeProfileResult(std::string_view bytes,
                              profiler::ProfileResult& out);

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_PROFILE_SERDE_HH
