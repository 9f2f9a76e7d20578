#include "data/sample.hpp"

#include <cstring>
#include <utility>

namespace ltfb::data {

namespace {

constexpr std::size_t kIdBytes = 2 * sizeof(std::uint32_t);

}  // namespace

std::size_t packed_sample_bytes(const SampleSchema& schema) noexcept {
  return kIdBytes + sizeof(float) * schema.total_width();
}

void pack_sample(const Sample& sample, const SampleSchema& schema,
                 std::span<std::uint8_t> out) {
  LTFB_CHECK_MSG(sample.conforms_to(schema),
                 "sample " << sample.id << " does not match the schema");
  LTFB_CHECK_MSG(out.size() == packed_sample_bytes(schema),
                 "packed sample needs " << packed_sample_bytes(schema)
                                        << " bytes, got " << out.size());
  // The 64-bit id is split into two 32-bit halves.
  const auto lo = static_cast<std::uint32_t>(sample.id & 0xffffffffull);
  const auto hi = static_cast<std::uint32_t>(sample.id >> 32);
  std::uint8_t* at = out.data();
  std::memcpy(at, &lo, sizeof(lo));
  std::memcpy(at + sizeof(lo), &hi, sizeof(hi));
  at += kIdBytes;
  for (const std::vector<float>* field :
       {&sample.input, &sample.scalars, &sample.images}) {
    if (field->empty()) continue;
    std::memcpy(at, field->data(), field->size() * sizeof(float));
    at += field->size() * sizeof(float);
  }
}

Sample unpack_sample(std::span<const std::uint8_t> in,
                     const SampleSchema& schema) {
  LTFB_CHECK_MSG(in.size() == packed_sample_bytes(schema),
                 "packed sample size " << in.size()
                                       << " does not match schema width "
                                       << schema.total_width());
  Sample sample;
  std::uint32_t lo = 0, hi = 0;
  std::memcpy(&lo, in.data(), sizeof(lo));
  std::memcpy(&hi, in.data() + sizeof(lo), sizeof(hi));
  sample.id = (static_cast<std::uint64_t>(hi) << 32) | lo;
  const std::uint8_t* at = in.data() + kIdBytes;
  for (const auto& [field, width] :
       {std::pair{&sample.input, schema.input_width},
        std::pair{&sample.scalars, schema.scalar_width},
        std::pair{&sample.images, schema.image_width}}) {
    field->resize(width);
    if (width == 0) continue;
    std::memcpy(field->data(), at, width * sizeof(float));
    at += width * sizeof(float);
  }
  return sample;
}

}  // namespace ltfb::data
