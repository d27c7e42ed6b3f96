#pragma once
/// \file sell_operator.hpp
/// \brief SELL-C-sigma execution backend of the operator seam.
///
/// SellOperator is the `backend=sell` counterpart of CsrOperator: the one
/// counting MatrixOperator template (krylov/operator.hpp) over a
/// sparse::SellMatrix.  Its narrowed inner-plane mirror is the same
/// template over a sparse::SellMatrixT, built by ensure_plane
/// (krylov/mixed.hpp), so every precision=/index= configuration streams a
/// narrowed SELL structure, not a CSR fallback.
///
/// Byte accounting counts the format's TRUE stored widths: scalar bytes
/// include the padding slots (stored(): they stream through the cache
/// hierarchy even though the active-prefix kernel never multiplies them,
/// see sell.hpp), and index bytes count index_slots() -- the padded
/// column indices plus the chunk offsets, slot lengths, and scatter
/// permutation the kernels walk per pass.  Results are bitwise identical
/// to CsrOperator over the source matrix, per column, at any thread
/// count.

#include "krylov/operator.hpp"
#include "sparse/sell.hpp"

namespace sdcgmres::krylov {

/// The SELL-C-sigma matrix as a LinearOperator.
using SellOperator = MatrixOperator<sparse::SellMatrix>;

} // namespace sdcgmres::krylov
