// The one Gauss-Jordan insertion step every RLNC decoder runs.
//
// A decoder banks equations as FUSED rows: `cols` coefficient bytes
// followed by the payload, one contiguous buffer, so every elimination
// step is a single GF pass over coefficients and payload together. The
// basis is Gauss-Jordan reduced: the row whose lead is column j has a 1
// there and a 0 at every other pivot column. A reduced row echelon form
// of a row space is unique and GF(256) arithmetic is exact, so any
// decoder that inserts the same equations through this step holds the
// same basis, whatever storage it keeps its rows in.
//
// The caller owns all storage: the basis rows (fec::RlncDecoder's row
// buffers, stream::WindowDecoder's window rows, the flow engine's arena
// slots), the work row and the term scratch. The same shape as flec's
// single equation/system module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/gf256.h"

namespace ppr::fec {

// Inserts the fused row `work` ([cols coefficient bytes | payload])
// into the reduced basis that `row_at` describes: row_at(j) returns the
// pivot row whose lead is column j (work.size() bytes, writable), or
// nullptr when column j has none. Returns the new row's lead column;
// `work` then holds the new pivot row (scaled to 1 at its lead, zero at
// every other pivot column), every existing row is zero at that column,
// and the caller stores `work` as column lead's row. Returns `cols` when
// the row is dependent on the basis (its payload may be nonzero: an
// inconsistent equation), and the basis is untouched. `terms` is the
// caller's scratch for the forward sweep.
template <typename RowAt>
std::size_t GaussJordanInsert(std::span<std::uint8_t> work, std::size_t cols,
                              RowAt&& row_at, std::vector<GfTerm>& terms) {
  // Forward sweep. Pivot rows are zero at every OTHER pivot column, so
  // eliminating pivot j never changes the factor a later pivot sees:
  // read every factor upfront and run the sweep as ONE GfAxpyN.
  terms.clear();
  for (std::size_t j = 0; j < cols; ++j) {
    if (work[j] == 0) continue;
    if (const std::uint8_t* row = row_at(j)) {
      terms.push_back({work[j], {row, work.size()}});
    }
  }
  GfAxpyN(work, terms);

  std::size_t lead = 0;
  while (lead < cols && work[lead] == 0) ++lead;
  if (lead == cols) return cols;  // linearly dependent
  GfScale(work, GfInv(work[lead]));

  // Back-eliminate the new lead column from every row that holds it, so
  // the basis stays reduced.
  for (std::size_t j = 0; j < cols; ++j) {
    std::uint8_t* row = row_at(j);
    if (row == nullptr || row[lead] == 0) continue;
    GfAxpy({row, work.size()}, row[lead], work);
  }
  return lead;
}

}  // namespace ppr::fec
