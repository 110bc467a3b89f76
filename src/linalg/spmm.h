// Sparse-matrix × dense-matrix (SpMM) kernel over typed-CSR views.
//
// The EM cluster-optimization E-step's link term (Eqs. 10-12) is a sum of
// γ_r-weighted products W_r Θ, one per relation r, where W_r is the
// relation's out-adjacency in CSR form. Expressing it this way replaces
// the per-link gather over each node's OutLinks (LinkEntry.type lookup
// into gamma inside the innermost loop) with contiguous neighbor-id/weight
// arrays and a tight K-wide inner loop the compiler can vectorize — each
// output entry out[v][k] is independent across k, so vectorizing never
// reorders a floating-point reduction and the result is identical to the
// scalar loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.h"

namespace genclus {

/// Read-only CSR matrix view with 32-bit column ids — the shape of
/// Network's per-relation adjacency views. Row v's non-zeros live at
/// [row_offsets[v], row_offsets[v + 1]) in `cols`/`values`.
struct CsrMatrixView {
  std::span<const size_t> row_offsets;  // num_rows + 1 (empty matrix: empty)
  std::span<const uint32_t> cols;
  std::span<const double> values;

  size_t rows() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
  size_t nnz() const { return cols.size(); }
};

/// out[v,:] += coeff * sum_j values[j] * dense[cols[j],:] for each row v in
/// [row_begin, row_end) — the γ-weighted W_r Θ product of the E-step's link
/// term, restricted to one block of rows so callers can tile the sweep.
/// `dense` and `out` are row-major with `k` columns; they must not alias.
/// Each output row is accumulated as one left-to-right chain over the CSR
/// non-zeros, resumed from the value already in `out`, so the result is
/// bitwise independent of how callers partition the row range.
void SpmmAccumulate(const CsrMatrixView& a, double coeff, const double* dense,
                    size_t k, size_t row_begin, size_t row_end, double* out);

/// Rejects dense column counts that cannot be addressed by the view's
/// 32-bit column ids. CsrMatrixView stores `uint32_t` ids (with the
/// all-ones pattern reserved as the hin layer's invalid-node sentinel);
/// building a CSR over more columns than that would silently wrap ids
/// instead of failing. `what` names the dimension for the error message
/// (e.g. "node count").
Status ValidateCsrColumnCount(size_t num_cols, const char* what);

}  // namespace genclus
