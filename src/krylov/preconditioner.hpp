#pragma once

/// \file preconditioner.hpp
/// Preconditioner interface and implementations for the Krylov solvers.
///
/// The paper's opening sentence positions Distributed Southwell "as a
/// competitor to Block Jacobi for preconditioning and multigrid smoothing";
/// this module makes the preconditioning half concrete: a fixed number of
/// parallel steps of Block Jacobi / Parallel Southwell / Distributed
/// Southwell (zero initial guess, the residual as right-hand side) is an
/// SPD-ish but *iteration-varying* operator, so it is paired with flexible
/// CG (see cg.hpp). The preconditioners track the communication their
/// applications generate, so the bench can compare "CG iterations saved"
/// against "messages spent" — the paper's economy, one level up.

#include <cstdint>
#include <memory>
#include <span>

#include "dist/driver.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::krylov {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

/// z ≈ M⁻¹ r. Implementations may be stateful across applications (for
/// communication accounting) but must treat each apply independently.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const value_t> r, std::span<value_t> z) = 0;
  virtual const char* name() const = 0;
  /// Cumulative messages/rank generated by applications so far (0 for
  /// local preconditioners).
  virtual double comm_cost() const { return 0.0; }
  /// True if the operator varies between applications (requires flexible
  /// CG for a provably sound pairing).
  virtual bool is_variable() const { return false; }
};

/// Identity (no preconditioning).
/// Test-only: Preconditioners.IdentityEqualsPlainCg compares PCG to CG with it.
std::unique_ptr<Preconditioner> make_identity_preconditioner();

/// Point-Jacobi: z = D⁻¹ r.
std::unique_ptr<Preconditioner> make_jacobi_preconditioner(
    const CsrMatrix& a);

/// Symmetric Gauss–Seidel (SSOR with ω = 1): z from one forward + one
/// backward sweep — a classical SPD preconditioner for reference.
std::unique_ptr<Preconditioner> make_symmetric_gs_preconditioner(
    const CsrMatrix& a);

/// k parallel steps of a distributed method on a fixed layout, with zero
/// initial guess and r as the right-hand side. Block Jacobi with fixed k
/// is a fixed linear (if not always SPD) operator; the Southwell methods
/// are selection-dependent, hence variable.
struct DistPreconditionerOptions {
  dist::DistMethod method = dist::DistMethod::kDistributedSouthwell;
  index_t steps = 2;
  dist::DistRunOptions run{};  ///< machine model / DS switches
};
std::unique_ptr<Preconditioner> make_distributed_preconditioner(
    const CsrMatrix& a, const graph::Partition& partition,
    const DistPreconditionerOptions& opt);

}  // namespace dsouth::krylov
