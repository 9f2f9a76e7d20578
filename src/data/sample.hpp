// Multimodal sample type and schema.
//
// Mirrors the paper's data model: each sample pairs a 5-D input parameter
// vector with an output bundle of 15 scalars and 12 flattened X-ray images.
// Samples are identified by a stable 64-bit id (their index in the global
// dataset) — the key used by the distributed data store's owner mapping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace ltfb::data {

using SampleId = std::uint64_t;

struct SampleSchema {
  std::size_t input_width = 5;
  std::size_t scalar_width = 15;
  std::size_t image_width = 0;  // num_views * num_channels * pixels

  std::size_t output_width() const noexcept {
    return scalar_width + image_width;
  }
  std::size_t total_width() const noexcept {
    return input_width + output_width();
  }
  bool operator==(const SampleSchema&) const = default;
};

struct Sample {
  SampleId id = 0;
  std::vector<float> input;
  std::vector<float> scalars;
  std::vector<float> images;

  bool conforms_to(const SampleSchema& schema) const noexcept {
    return input.size() == schema.input_width &&
           scalars.size() == schema.scalar_width &&
           images.size() == schema.image_width;
  }

  /// Approximate in-memory footprint in bytes — what the data store's
  /// capacity accounting charges for this sample.
  std::size_t byte_size() const noexcept {
    return sizeof(SampleId) +
           sizeof(float) * (input.size() + scalars.size() + images.size());
  }
};

/// Bytes one sample of `schema` occupies in packed form.
std::size_t packed_sample_bytes(const SampleSchema& schema) noexcept;

/// Writes `sample` into `out` in the data store shuffle's wire form:
/// [id_lo, id_hi, input, scalars, images] as 32-bit words in host order,
/// copied straight from the sample's fields into the caller's buffer (a
/// comm payload). Throws unless the sample conforms to `schema` and `out`
/// is exactly packed_sample_bytes(schema) long.
void pack_sample(const Sample& sample, const SampleSchema& schema,
                 std::span<std::uint8_t> out);

/// Inverse of pack_sample; `schema` determines the field split.
Sample unpack_sample(std::span<const std::uint8_t> in,
                     const SampleSchema& schema);

}  // namespace ltfb::data
