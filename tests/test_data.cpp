// Unit tests for src/data: sample packing, the bundle file format, dataset
// splits/partitions, normalization, and the mini-batch reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "data/bundle.hpp"
#include "data/data_reader.hpp"
#include "data/dataset.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::data;

SampleSchema small_schema() {
  SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 8;
  return schema;
}

Sample make_sample(SampleId id, const SampleSchema& schema) {
  Sample sample;
  sample.id = id;
  sample.input.resize(schema.input_width);
  sample.scalars.resize(schema.scalar_width);
  sample.images.resize(schema.image_width);
  for (std::size_t i = 0; i < sample.input.size(); ++i) {
    sample.input[i] = static_cast<float>(id * 100 + i);
  }
  for (std::size_t i = 0; i < sample.scalars.size(); ++i) {
    sample.scalars[i] = static_cast<float>(id) + 0.5f * static_cast<float>(i);
  }
  for (std::size_t i = 0; i < sample.images.size(); ++i) {
    sample.images[i] = static_cast<float>(id) * 0.25f;
  }
  return sample;
}

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("ltfb_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- sample packing ------------------------------------------------------------

TEST(Sample, PackUnpackRoundTrip) {
  const auto schema = small_schema();
  const Sample original = make_sample(0xdeadbeefcafe1234ull % (1ull << 40),
                                      schema);
  std::vector<std::uint8_t> packed(packed_sample_bytes(schema));
  EXPECT_EQ(packed.size(), 4 * (2 + schema.total_width()));
  pack_sample(original, schema, packed);
  const Sample restored = unpack_sample(packed, schema);
  EXPECT_EQ(restored.id, original.id);
  EXPECT_EQ(restored.input, original.input);
  EXPECT_EQ(restored.scalars, original.scalars);
  EXPECT_EQ(restored.images, original.images);
}

TEST(Sample, PackPreservesLargeIds) {
  const auto schema = small_schema();
  Sample sample = make_sample(0, schema);
  sample.id = 0xffffffffffull;  // needs > 32 bits
  std::vector<std::uint8_t> packed(packed_sample_bytes(schema));
  pack_sample(sample, schema, packed);
  EXPECT_EQ(unpack_sample(packed, schema).id, sample.id);
}

TEST(Sample, UnpackWrongSizeThrows) {
  std::vector<std::uint8_t> packed(12);
  EXPECT_THROW(unpack_sample(packed, small_schema()), InvalidArgument);
  // Packing checks both the sample's shape and the buffer's size.
  const Sample sample = make_sample(1, small_schema());
  EXPECT_THROW(pack_sample(sample, small_schema(), packed), InvalidArgument);
}

TEST(Sample, ByteSizeAccounting) {
  const auto schema = small_schema();
  const Sample sample = make_sample(1, schema);
  EXPECT_EQ(sample.byte_size(), 8 + 4 * schema.total_width());
}

TEST(Sample, ConformsToSchema) {
  const auto schema = small_schema();
  Sample sample = make_sample(1, schema);
  EXPECT_TRUE(sample.conforms_to(schema));
  sample.images.pop_back();
  EXPECT_FALSE(sample.conforms_to(schema));
}

// ---- bundle files ---------------------------------------------------------------

TEST(Bundle, WriteReadRoundTrip) {
  const auto dir = temp_dir("bundle_rt");
  const auto schema = small_schema();
  const auto path = dir / "test.ltfb";
  {
    BundleWriter writer(path, schema);
    for (SampleId id = 0; id < 10; ++id) {
      writer.append(make_sample(id, schema));
    }
    EXPECT_EQ(writer.samples_written(), 10u);
    writer.close();
  }
  BundleReader reader(path);
  EXPECT_EQ(reader.sample_count(), 10u);
  EXPECT_EQ(reader.schema(), schema);
  const auto all = reader.read_all();
  ASSERT_EQ(all.size(), 10u);
  for (SampleId id = 0; id < 10; ++id) {
    EXPECT_EQ(all[id].id, id);
    EXPECT_EQ(all[id].input, make_sample(id, schema).input);
  }
}

TEST(Bundle, RandomAccessRead) {
  const auto dir = temp_dir("bundle_ra");
  const auto schema = small_schema();
  const auto path = dir / "test.ltfb";
  {
    BundleWriter writer(path, schema);
    for (SampleId id = 0; id < 20; ++id) {
      writer.append(make_sample(id, schema));
    }
  }
  BundleReader reader(path);
  // Out-of-order access must return the right records.
  for (const std::size_t index : {7u, 0u, 19u, 3u, 3u}) {
    const Sample sample = reader.read_sample(index);
    EXPECT_EQ(sample.id, index);
    EXPECT_EQ(sample.scalars, make_sample(index, schema).scalars);
  }
}

TEST(Bundle, ReadIndexOutOfRangeThrows) {
  const auto dir = temp_dir("bundle_oor");
  const auto schema = small_schema();
  const auto path = dir / "test.ltfb";
  {
    BundleWriter writer(path, schema);
    writer.append(make_sample(0, schema));
  }
  BundleReader reader(path);
  EXPECT_THROW(reader.read_sample(1), InvalidArgument);
}

TEST(Bundle, NonconformingSampleThrows) {
  const auto dir = temp_dir("bundle_bad");
  BundleWriter writer(dir / "test.ltfb", small_schema());
  Sample bad = make_sample(0, small_schema());
  bad.input.push_back(0.0f);
  EXPECT_THROW(writer.append(bad), InvalidArgument);
}

TEST(Bundle, BadMagicRejected) {
  const auto dir = temp_dir("bundle_magic");
  const auto path = dir / "garbage.ltfb";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a bundle file at all, not even close.....";
  }
  EXPECT_THROW(BundleReader reader(path), FormatError);
}

TEST(Bundle, MissingFileRejected) {
  EXPECT_THROW(BundleReader reader("/nonexistent/nope.ltfb"), FormatError);
}

TEST(Bundle, WriteBundleSetSplitsEvenly) {
  const auto dir = temp_dir("bundle_set");
  const auto schema = small_schema();
  std::vector<Sample> samples;
  for (SampleId id = 0; id < 25; ++id) {
    samples.push_back(make_sample(id, schema));
  }
  const auto paths = write_bundle_set(dir, schema, samples, 4);
  ASSERT_EQ(paths.size(), 4u);
  std::size_t total = 0;
  SampleId expected_id = 0;
  for (const auto& path : paths) {
    BundleReader reader(path);
    total += reader.sample_count();
    for (const auto& sample : reader.read_all()) {
      EXPECT_EQ(sample.id, expected_id++);  // sequential across files
    }
  }
  EXPECT_EQ(total, 25u);
}

// ---- dataset / splits -------------------------------------------------------------

Dataset make_dataset(std::size_t n) {
  const auto schema = small_schema();
  Dataset dataset(schema, {});
  for (SampleId id = 0; id < n; ++id) {
    dataset.add(make_sample(id, schema));
  }
  return dataset;
}

TEST(Dataset, AddEnforcesSchema) {
  Dataset dataset(small_schema(), {});
  Sample bad = make_sample(0, small_schema());
  bad.scalars.pop_back();
  EXPECT_THROW(dataset.add(bad), InvalidArgument);
}

TEST(Dataset, SubsetCopiesSelection) {
  const Dataset dataset = make_dataset(10);
  const Dataset sub = dataset.subset({3, 7});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.sample(0).id, 3u);
  EXPECT_EQ(sub.sample(1).id, 7u);
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  const Dataset dataset = make_dataset(3);
  EXPECT_THROW(dataset.subset({5}), InvalidArgument);
}

TEST(Dataset, ByteSize) {
  const Dataset dataset = make_dataset(4);
  EXPECT_EQ(dataset.byte_size(), 4 * (8 + 4 * small_schema().total_width()));
}

TEST(Split, DisjointAndCovering) {
  const auto split = split_dataset(100, 0.7, 0.1, 42);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.tournament.size(), 10u);
  EXPECT_EQ(split.validation.size(), 20u);
  std::set<std::size_t> all;
  for (const auto& part : {split.train, split.tournament, split.validation}) {
    for (const auto index : part) {
      EXPECT_TRUE(all.insert(index).second) << "duplicate index " << index;
      EXPECT_LT(index, 100u);
    }
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(Split, DeterministicPerSeed) {
  const auto a = split_dataset(50, 0.6, 0.2, 7);
  const auto b = split_dataset(50, 0.6, 0.2, 7);
  const auto c = split_dataset(50, 0.6, 0.2, 8);
  EXPECT_EQ(a.train, b.train);
  EXPECT_NE(a.train, c.train);
}

TEST(Split, InvalidFractionsThrow) {
  EXPECT_THROW(split_dataset(10, 0.8, 0.3, 1), InvalidArgument);
}

TEST(Partition, BalancedAndDisjoint) {
  std::vector<std::size_t> indices(103);
  std::iota(indices.begin(), indices.end(), 0);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t part = 0; part < 4; ++part) {
    const auto piece = partition_indices(indices, 4, part);
    EXPECT_GE(piece.size(), 25u);
    EXPECT_LE(piece.size(), 26u);
    total += piece.size();
    for (const auto index : piece) {
      EXPECT_TRUE(seen.insert(index).second);
    }
  }
  EXPECT_EQ(total, 103u);
}

TEST(Partition, SinglePartIsIdentity) {
  const std::vector<std::size_t> indices{5, 6, 7};
  EXPECT_EQ(partition_indices(indices, 1, 0), indices);
}

TEST(Partition, InvalidPartThrows) {
  EXPECT_THROW(partition_indices({1, 2}, 2, 2), InvalidArgument);
}

// ---- jag dataset generation -------------------------------------------------------

TEST(JagDataset, GenerationDeterministic) {
  jag::JagConfig config;
  config.image_size = 4;
  const jag::JagModel model(config);
  const Dataset a = generate_jag_dataset(model, 5, 11);
  const Dataset b = generate_jag_dataset(model, 5, 11);
  const Dataset c = generate_jag_dataset(model, 5, 12);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a.sample(3).scalars, b.sample(3).scalars);
  EXPECT_NE(a.sample(3).scalars, c.sample(3).scalars);
}

TEST(JagDataset, IdsSequentialFromFirstId) {
  jag::JagConfig config;
  config.image_size = 4;
  const jag::JagModel model(config);
  const Dataset dataset = generate_jag_dataset(model, 4, 1, /*first_id=*/100);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.sample(i).id, 100 + i);
  }
}

TEST(JagDataset, ExplicitPointsRoundTrip) {
  jag::JagConfig config;
  config.image_size = 4;
  const jag::JagModel model(config);
  const std::vector<std::array<double, jag::kNumInputs>> points{
      {0.1, 0.2, 0.3, 0.4, 0.5}, {0.9, 0.8, 0.7, 0.6, 0.5}};
  const Dataset dataset = generate_jag_dataset(model, points);
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_NEAR(dataset.sample(0).input[0], 0.1f, 1e-6f);
  EXPECT_NEAR(dataset.sample(1).input[4], 0.5f, 1e-6f);
}

// ---- normalization ------------------------------------------------------------------

TEST(Normalizer, FitTransformInverse) {
  Normalizer norm;
  // Two features: means (2, 10), stddevs (1, 0 -> clamped to 1).
  std::vector<float> rows{1, 10, 3, 10, 2, 10};
  norm.fit(rows, 2);
  EXPECT_NEAR(norm.mean()[0], 2.0f, 1e-6f);
  EXPECT_NEAR(norm.mean()[1], 10.0f, 1e-6f);
  EXPECT_NEAR(norm.stddev()[1], 1.0f, 1e-6f);  // zero-variance clamp

  std::vector<float> x{3, 10};
  norm.transform(x);
  EXPECT_NEAR(x[1], 0.0f, 1e-6f);
  norm.inverse(x);
  EXPECT_NEAR(x[0], 3.0f, 1e-5f);
  EXPECT_NEAR(x[1], 10.0f, 1e-5f);
}

TEST(Normalizer, TransformBeforeFitThrows) {
  Normalizer norm;
  std::vector<float> x{1.0f};
  EXPECT_THROW(norm.transform(x), InvalidArgument);
}

TEST(Normalizer, DatasetNormalizationZeroMeanUnitVar) {
  jag::JagConfig config;
  config.image_size = 4;
  const jag::JagModel model(config);
  Dataset dataset = generate_jag_dataset(model, 200, 3);
  const auto norms = fit_normalizers(dataset);
  normalize_dataset(dataset, norms);
  // Re-fit on the normalized data: means ~0, stddev ~1 for scalars.
  const auto refit = fit_normalizers(dataset);
  for (std::size_t c = 0; c < dataset.schema().scalar_width; ++c) {
    EXPECT_NEAR(refit.scalars.mean()[c], 0.0f, 1e-3f);
    EXPECT_NEAR(refit.scalars.stddev()[c], 1.0f, 1e-2f);
  }
}

// ---- mini-batch reader ---------------------------------------------------------------

TEST(Reader, BatchLayout) {
  const Dataset dataset = make_dataset(10);
  const Batch batch = make_batch(dataset, {2, 5});
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.inputs.rows(), 2u);
  EXPECT_EQ(batch.inputs.cols(), 5u);
  EXPECT_EQ(batch.scalars.cols(), 15u);
  EXPECT_EQ(batch.images.cols(), 8u);
  EXPECT_EQ(batch.outputs.cols(), 23u);
  EXPECT_EQ(batch.ids, (std::vector<SampleId>{2, 5}));
  // outputs = [scalars | images]
  EXPECT_FLOAT_EQ(batch.outputs.at(0, 0), batch.scalars.at(0, 0));
  EXPECT_FLOAT_EQ(batch.outputs.at(0, 15), batch.images.at(0, 0));
  EXPECT_FLOAT_EQ(batch.inputs.at(1, 3), dataset.sample(5).input[3]);
}

TEST(Reader, EpochCoversViewExactlyOnce) {
  const Dataset dataset = make_dataset(20);
  std::vector<std::size_t> view{0, 1, 2, 3, 4, 5, 6, 7};
  MiniBatchReader reader(dataset, view, 4, 99);
  std::multiset<SampleId> seen;
  for (int b = 0; b < 2; ++b) {
    const Batch batch = reader.next();
    seen.insert(batch.ids.begin(), batch.ids.end());
  }
  EXPECT_EQ(seen.size(), 8u);
  for (const auto index : view) {
    EXPECT_EQ(seen.count(index), 1u);
  }
}

TEST(Reader, DropLastSkipsShortBatch) {
  const Dataset dataset = make_dataset(10);
  std::vector<std::size_t> view{0, 1, 2, 3, 4, 5, 6};  // 7 samples, batch 3
  MiniBatchReader reader(dataset, view, 3, 1, /*drop_last=*/true);
  EXPECT_EQ(reader.batches_per_epoch(), 2u);
  (void)reader.next();
  (void)reader.next();
  EXPECT_EQ(reader.epoch(), 0u);
  (void)reader.next();  // rolls into epoch 1
  EXPECT_EQ(reader.epoch(), 1u);
}

TEST(Reader, KeepLastServesShortBatch) {
  const Dataset dataset = make_dataset(10);
  std::vector<std::size_t> view{0, 1, 2, 3, 4};
  MiniBatchReader reader(dataset, view, 3, 1, /*drop_last=*/false);
  EXPECT_EQ(reader.batches_per_epoch(), 2u);
  (void)reader.next();
  const Batch last = reader.next();
  EXPECT_EQ(last.size(), 2u);
}

TEST(Reader, ShuffleDiffersAcrossEpochs) {
  const Dataset dataset = make_dataset(64);
  std::vector<std::size_t> view(64);
  std::iota(view.begin(), view.end(), 0);
  MiniBatchReader reader(dataset, view, 64, 5);
  const Batch epoch0 = reader.next();
  const Batch epoch1 = reader.next();
  EXPECT_NE(epoch0.ids, epoch1.ids);
}

TEST(Reader, DeterministicPerSeed) {
  const Dataset dataset = make_dataset(16);
  std::vector<std::size_t> view(16);
  std::iota(view.begin(), view.end(), 0);
  MiniBatchReader a(dataset, view, 4, 123);
  MiniBatchReader b(dataset, view, 4, 123);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next().ids, b.next().ids);
  }
}

TEST(Reader, ViewSmallerThanBatchThrows) {
  const Dataset dataset = make_dataset(4);
  EXPECT_THROW(MiniBatchReader(dataset, {0, 1}, 3, 1, /*drop_last=*/true),
               InvalidArgument);
}

TEST(Reader, InvalidViewPositionThrows) {
  const Dataset dataset = make_dataset(4);
  EXPECT_THROW(MiniBatchReader(dataset, {0, 99}, 1, 1), InvalidArgument);
}

}  // namespace
