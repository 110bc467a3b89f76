#include "linalg/spmm.h"

#include <limits>
#include <string>

#include "common/check.h"

namespace genclus {

namespace {

// K-specialized row kernel: with the column count a compile-time constant
// the inner loop fully unrolls and keeps the output row in registers
// across the whole neighbor scan.
template <size_t K>
void SpmmRowsFixedK(const size_t* row_offsets, const uint32_t* cols,
                    const double* values, double coeff, const double* dense,
                    size_t row_begin, size_t row_end, double* out) {
  for (size_t v = row_begin; v < row_end; ++v) {
    const size_t begin = row_offsets[v];
    const size_t end = row_offsets[v + 1];
    if (begin == end) continue;
    double* out_row = out + v * K;
    double acc[K];
    for (size_t kk = 0; kk < K; ++kk) acc[kk] = out_row[kk];
    for (size_t j = begin; j < end; ++j) {
      const double w = coeff * values[j];
      const double* in = dense + static_cast<size_t>(cols[j]) * K;
      for (size_t kk = 0; kk < K; ++kk) acc[kk] += w * in[kk];
    }
    for (size_t kk = 0; kk < K; ++kk) out_row[kk] = acc[kk];
  }
}

void SpmmRowsGenericK(const size_t* row_offsets, const uint32_t* cols,
                      const double* values, double coeff, const double* dense,
                      size_t k, size_t row_begin, size_t row_end,
                      double* out) {
  for (size_t v = row_begin; v < row_end; ++v) {
    const size_t begin = row_offsets[v];
    const size_t end = row_offsets[v + 1];
    double* out_row = out + v * k;
    for (size_t j = begin; j < end; ++j) {
      const double w = coeff * values[j];
      const double* in = dense + static_cast<size_t>(cols[j]) * k;
      for (size_t kk = 0; kk < k; ++kk) out_row[kk] += w * in[kk];
    }
  }
}

}  // namespace

void SpmmAccumulate(const CsrMatrixView& a, double coeff, const double* dense,
                    size_t k, size_t row_begin, size_t row_end, double* out) {
  GENCLUS_DCHECK(row_end <= a.rows());
  GENCLUS_DCHECK(row_begin <= row_end);
  GENCLUS_DCHECK(a.cols.size() == a.values.size());
  if (coeff == 0.0 || k == 0) return;
  const size_t* row_offsets = a.row_offsets.data();
  const uint32_t* cols = a.cols.data();
  const double* values = a.values.data();
  // The K values the paper's experiments use get the register-resident
  // kernel, everything else the generic loop.
  switch (k) {
    case 2:
      SpmmRowsFixedK<2>(row_offsets, cols, values, coeff, dense, row_begin,
                        row_end, out);
      break;
    case 3:
      SpmmRowsFixedK<3>(row_offsets, cols, values, coeff, dense, row_begin,
                        row_end, out);
      break;
    case 4:
      SpmmRowsFixedK<4>(row_offsets, cols, values, coeff, dense, row_begin,
                        row_end, out);
      break;
    case 8:
      SpmmRowsFixedK<8>(row_offsets, cols, values, coeff, dense, row_begin,
                        row_end, out);
      break;
    default:
      SpmmRowsGenericK(row_offsets, cols, values, coeff, dense, k, row_begin,
                       row_end, out);
      break;
  }
}

Status ValidateCsrColumnCount(size_t num_cols, const char* what) {
  // The hin layer reserves the all-ones id (kInvalidNode) as a sentinel,
  // so the largest addressable column count is UINT32_MAX, not
  // UINT32_MAX + 1.
  constexpr size_t kMaxCols =
      static_cast<size_t>(std::numeric_limits<uint32_t>::max());
  if (num_cols > kMaxCols) {
    return Status::InvalidArgument(
        std::string(what) + " " + std::to_string(num_cols) +
        " exceeds the 32-bit CSR column-id space (max " +
        std::to_string(kMaxCols) + ")");
  }
  return Status::OK();
}

}  // namespace genclus
