#include "extensions/sampled_views.h"

#include "common/hash.h"

namespace cloudviews {

Result<TablePtr> SampleView(const Table& view_contents, double rate,
                            uint64_t seed) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("sample rate must be in (0, 1], got " +
                                   std::to_string(rate));
  }
  // Deterministic per-row coin flip on (seed, row content), hashed a column
  // at a time.
  const size_t n = view_contents.num_rows();
  std::vector<Hasher> hashers(n, Hasher(seed));
  for (size_t c = 0; c < view_contents.num_columns(); ++c) {
    view_contents.column(c)->HashCellsInto(0, n, hashers.data());
  }
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < n; ++i) {
    double u = static_cast<double>(hashers[i].Finish().lo >> 11) *
               (1.0 / 9007199254740992.0);
    if (u < rate) kept.push_back(static_cast<uint32_t>(i));
  }
  std::vector<ColumnVector> columns(view_contents.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendGatherFrom(*view_contents.column(c), kept);
  }
  auto sample = std::make_shared<Table>(view_contents.name() + "_sample",
                                        view_contents.schema());
  CLOUDVIEWS_RETURN_NOT_OK(sample->AdoptColumns(std::move(columns)));
  return TablePtr(sample);
}

}  // namespace cloudviews
