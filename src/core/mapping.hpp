#pragma once
// 3D-mesh -> 2D-fabric data mapping and the per-PE memory planner.
//
// Mapping (Sec. III-A, after Jacquelin et al.): cell (x, y, z) lives on
// PE (x, y); a whole Z column resides in one PE's 48 KiB arena. The memory
// planner lays out every device buffer a PE needs and is the single source
// of truth shared by the device program (which allocates through it) and
// the host driver (which dry-runs it to learn upload/readback offsets).
//
// Layouts (the Sec. III-E1 ablation):
//  * Fused (optimized): face coefficients premultiplied on the host,
//    w_f = Upsilon_f * lambda_f_avg -> 5 coefficient arrays, no mobility
//    storage, one scratch buffer. This is the memory-minimal layout that
//    reaches the deepest columns.
//  * OnTheFly: stores raw transmissibilities plus the mobility column and
//    four persistent mobility halos (exchanged once at INIT); the flux
//    kernel averages mobilities every iteration. More FLOPs and more
//    memory — closer to the instruction mix of the paper's Table V.
//  * Naive (planning-only): OnTheFly plus the buffer duplication a
//    straightforward port would keep: both z-face transmissibility
//    directions stored, a separate initial-pressure buffer and a separate
//    residual scratch. Used by the memory ablation to show what buffer
//    reuse buys.

#include <vector>

#include "common/types.hpp"
#include "wse/memory.hpp"

namespace fvdf::core {

enum class FluxMode : u8 {
  Fused,    // premultiplied coefficients (memory-optimal)
  OnTheFly, // mobility averaged on the device every iteration
};

enum class LayoutKind : u8 { Optimized, OnTheFly, Naive };

const char* to_string(FluxMode mode);
const char* to_string(LayoutKind kind);

/// Offsets of every device buffer of the CG PE program. Spans with
/// length 0 are absent in the chosen mode.
struct PeLayout {
  u32 nz = 0;
  FluxMode mode = FluxMode::Fused;

  // Face coefficients: premultiplied w (Fused) or raw Upsilon (OnTheFly).
  wse::MemSpan cw, ce, cs, cn; // lateral, nz each
  wse::MemSpan cz;             // vertical, nz-1 (shared by both z rows)

  // OnTheFly extras.
  wse::MemSpan lambda;                 // own mobility column
  wse::MemSpan lh_w, lh_e, lh_s, lh_n; // neighbor mobility halos
  wse::MemSpan scratch2;               // second scratch (s)

  // Solver state.
  wse::MemSpan x;    // search direction (holds p0 during INIT)
  wse::MemSpan r;    // residual
  wse::MemSpan ysol; // accumulated solution delta (Algorithm 1's y)
  wse::MemSpan q;    // Jx
  wse::MemSpan d;    // scratch difference buffer

  // Jacobi preconditioning (PCG extension; absent in plain-CG layouts).
  wse::MemSpan minv; // inverse Jacobian diagonal
  wse::MemSpan z;    // preconditioned residual M^-1 r

  // Rate-well sources (present only when the problem has any).
  wse::MemSpan source;

  // Halo receive buffers (west/east/south/north neighbor columns).
  wse::MemSpan halo_w, halo_e, halo_s, halo_n;

  // Dirichlet bookkeeping: z indices of pinned cells (u16 little-endian
  // pairs in a byte span) — empty when the column has none.
  wse::MemSpan dirichlet_list; // byte span, 2 bytes per entry
  u32 dirichlet_count = 0;

  // Result/diagnostic scalars readable by the host after DONE:
  // [0]=iterations, [1]=converged flag, [2]=final global rr.
  wse::MemSpan result;

  // Allocation names of the spans the host reads back after a solve.
  static constexpr const char* kSolutionName = "cg.y";
  static constexpr const char* kResultName = "result";

  /// Allocates (or dry-runs) the layout in `mem`. Throws fvdf::Error when
  /// the arena cannot hold it.
  static PeLayout plan(wse::PeMemory& mem, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi = false,
                       bool with_source = false);

  /// Bytes the *planning-only* Naive layout would need for a column of
  /// `nz` cells (with `dirichlet_count` pinned cells).
  static u64 naive_bytes(u32 nz, u32 dirichlet_count);
};

/// Planner queries used by the memory ablation (bench/ablation_memory).
struct FitResult {
  bool fits = false;
  u64 bytes_needed = 0;
  u64 bytes_available = 0;
};

FitResult check_fit(LayoutKind kind, u32 nz, u64 capacity_bytes, u64 reserved_bytes,
                    u32 dirichlet_count = 0);

/// Largest column depth the layout supports in a PE arena (binary search
/// over check_fit).
u32 max_nz(LayoutKind kind, u64 capacity_bytes, u64 reserved_bytes,
           u32 dirichlet_count = 0);

/// Per-PE initialization data marshalled by the host driver.
struct PeInit {
  std::vector<f32> cw, ce, cs, cn; // nz each (meaning depends on mode)
  std::vector<f32> cz;             // nz-1
  std::vector<f32> lambda;         // nz (OnTheFly only)
  std::vector<f32> p0;             // initial pressure column
  std::vector<f32> minv;           // inverse diagonal (PCG only)
  std::vector<f32> source;         // rate-well column (empty if none)
  std::vector<u16> dirichlet_z;    // pinned z indices, ascending
};

} // namespace fvdf::core
