#pragma once

/// \file binary_io.hpp
/// Binary CSR serialization. The paper's artifact shipped its SuiteSparse
/// inputs as `.mtx.bin` files because Matrix Market text parsing dominates
/// setup time at these sizes; this is the equivalent facility (own format:
/// magic + version + dims + raw little-endian arrays, with validation on
/// load).

#include <istream>
#include <ostream>
#include <string>

#include "sparse/csr.hpp"

namespace dsouth::sparse {

/// Write a matrix in dsouth binary CSR format.
/// Test-only: BinaryCsr.* and RoundTrip.* write their fixtures with these.
void write_binary_csr(std::ostream& out, const CsrMatrix& a);
void write_binary_csr_file(const std::string& path, const CsrMatrix& a);

/// Read a matrix written by write_binary_csr. Throws CheckError on bad
/// magic, version mismatch, truncation, or structural corruption.
CsrMatrix read_binary_csr(std::istream& in);
CsrMatrix read_binary_csr_file(const std::string& path);

/// Load a matrix by file extension: ".bin" → binary CSR, anything else →
/// Matrix Market text (mirrors the artifact's -mat_file handling).
CsrMatrix load_matrix_any(const std::string& path);

}  // namespace dsouth::sparse
