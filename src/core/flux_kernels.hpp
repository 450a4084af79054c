#pragma once
// The device flux kernel and upload helpers shared by every FV device
// program (the CG driver and the Chebyshev iteration): the z-dimension
// flux over the local column, the per-face flux fired when a halo lands,
// the Dirichlet row fix-up, and the host-side memcpy of a PeInit into a
// planned layout.

#include "core/mapping.hpp"
#include "wse/bytecode.hpp"
#include "wse/program.hpp"

namespace fvdf::core {

/// Host-style upload of `init` into a planned layout of the PE's image
/// (free of cycle cost, models the SDK memcpy path). Zeroes every
/// solver-state buffer.
void upload_pe_init(wse::ImageBuilder& image, const PeLayout& layout,
                    const PeInit& init, FluxMode mode, bool jacobi);

// Bytecode emitters: each appends the charged DsdEngine operation
// sequence of one kernel to the program being lowered.

/// q = (vertical part of J) * x — computed while halos are in flight.
/// Initializes q to zero first.
void emit_z_flux(wse::bc::Builder& b, const PeLayout& layout, FluxMode mode);

/// q += (face `dir` part of J) * x, emitted at the halo's per-face
/// receive site. `dir` is a fabric direction (West/East/South/North).
void emit_face_flux(wse::bc::Builder& b, const PeLayout& layout, FluxMode mode,
                    wse::Dir dir);

/// Overwrites Dirichlet rows of q with x (Eq. 6's identity rows).
void emit_fix_dirichlet_rows(wse::bc::Builder& b, const PeLayout& layout);

/// Zeroes the listed Dirichlet entries of `span`.
void emit_zero_dirichlet_entries(wse::bc::Builder& b, const PeLayout& layout,
                                 const wse::MemSpan& span);

} // namespace fvdf::core
