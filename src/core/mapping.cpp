#include "core/mapping.hpp"

#include "common/error.hpp"

namespace fvdf::core {

const char* to_string(FluxMode mode) {
  switch (mode) {
  case FluxMode::Fused: return "fused";
  case FluxMode::OnTheFly: return "on-the-fly";
  }
  return "?";
}

const char* to_string(LayoutKind kind) {
  switch (kind) {
  case LayoutKind::Optimized: return "optimized (fused coefficients, buffer reuse)";
  case LayoutKind::OnTheFly: return "on-the-fly mobility averaging";
  case LayoutKind::Naive: return "naive (no sharing, duplicated buffers)";
  }
  return "?";
}

PeLayout PeLayout::plan(wse::PeMemory& mem, u32 nz, FluxMode mode,
                        u32 dirichlet_count, bool jacobi, bool with_source) {
  FVDF_CHECK(nz >= 1);
  FVDF_CHECK(dirichlet_count <= nz);
  PeLayout layout;
  layout.nz = nz;
  layout.mode = mode;
  layout.dirichlet_count = dirichlet_count;

  // Allocation order is the contract between device program and host
  // driver — do not reorder without updating both.
  layout.cw = mem.alloc_f32("coef.west", nz);
  layout.ce = mem.alloc_f32("coef.east", nz);
  layout.cs = mem.alloc_f32("coef.south", nz);
  layout.cn = mem.alloc_f32("coef.north", nz);
  if (nz > 1) layout.cz = mem.alloc_f32("coef.z", nz - 1);

  if (mode == FluxMode::OnTheFly) {
    layout.lambda = mem.alloc_f32("mobility", nz);
    layout.lh_w = mem.alloc_f32("mobility.halo_w", nz);
    layout.lh_e = mem.alloc_f32("mobility.halo_e", nz);
    layout.lh_s = mem.alloc_f32("mobility.halo_s", nz);
    layout.lh_n = mem.alloc_f32("mobility.halo_n", nz);
    layout.scratch2 = mem.alloc_f32("scratch.s", nz);
  }

  layout.x = mem.alloc_f32("cg.x", nz);
  layout.r = mem.alloc_f32("cg.r", nz);
  layout.ysol = mem.alloc_f32(kSolutionName, nz);
  layout.q = mem.alloc_f32("cg.q", nz);
  layout.d = mem.alloc_f32("scratch.d", nz);

  if (jacobi) {
    layout.minv = mem.alloc_f32("pcg.minv", nz);
    layout.z = mem.alloc_f32("pcg.z", nz);
  }
  if (with_source) layout.source = mem.alloc_f32("well.source", nz);

  layout.halo_w = mem.alloc_f32("halo.west", nz);
  layout.halo_e = mem.alloc_f32("halo.east", nz);
  layout.halo_s = mem.alloc_f32("halo.south", nz);
  layout.halo_n = mem.alloc_f32("halo.north", nz);

  if (dirichlet_count > 0)
    layout.dirichlet_list = mem.alloc_bytes("dirichlet.z", 2 * dirichlet_count);

  layout.result = mem.alloc_f32(kResultName, 3);
  return layout;
}

u64 PeLayout::naive_bytes(u32 nz, u32 dirichlet_count) {
  // The straightforward port: six transmissibility arrays (both z-face
  // directions stored), mobility + 4 halos, two scratches, a preserved
  // initial-pressure buffer and a separate initial-residual buffer on top
  // of the OnTheFly solver state.
  const u64 arrays = 6 /*T*/ + 5 /*lambda + halos*/ + 2 /*scratch*/ +
                     4 /*cg state*/ + 4 /*halo*/ + 1 /*p0 copy*/ + 1 /*r0 copy*/;
  return arrays * 4ull * nz + 2ull * dirichlet_count + 3 * 4;
}

FitResult check_fit(LayoutKind kind, u32 nz, u64 capacity_bytes, u64 reserved_bytes,
                    u32 dirichlet_count) {
  FitResult result;
  FVDF_CHECK(reserved_bytes < capacity_bytes);
  result.bytes_available = capacity_bytes - reserved_bytes;
  if (kind == LayoutKind::Naive) {
    result.bytes_needed = PeLayout::naive_bytes(nz, dirichlet_count);
    result.fits = result.bytes_needed <= result.bytes_available;
    return result;
  }
  const FluxMode mode =
      (kind == LayoutKind::Optimized) ? FluxMode::Fused : FluxMode::OnTheFly;
  // Dry-run the real planner (plus the all-reduce component's two scalar
  // slots allocated at configure time).
  try {
    wse::PeMemory probe(capacity_bytes, reserved_bytes);
    (void)PeLayout::plan(probe, nz, mode, dirichlet_count);
    (void)probe.alloc_f32("allreduce.value", 1);
    (void)probe.alloc_f32("allreduce.in", 1);
    result.bytes_needed = probe.used_bytes();
    result.fits = true;
  } catch (const Error&) {
    // Overflow: recompute the need with an oversized probe for reporting.
    wse::PeMemory probe(static_cast<u64>(nz) * 256 + 65536, 0);
    (void)PeLayout::plan(probe, nz, mode, dirichlet_count);
    (void)probe.alloc_f32("allreduce.value", 1);
    (void)probe.alloc_f32("allreduce.in", 1);
    result.bytes_needed = probe.used_bytes();
    result.fits = false;
  }
  return result;
}

u32 max_nz(LayoutKind kind, u64 capacity_bytes, u64 reserved_bytes,
           u32 dirichlet_count) {
  u32 lo = 1, hi = 8192;
  if (!check_fit(kind, lo, capacity_bytes, reserved_bytes, dirichlet_count).fits)
    return 0;
  while (check_fit(kind, hi, capacity_bytes, reserved_bytes, dirichlet_count).fits)
    hi *= 2;
  while (lo + 1 < hi) {
    const u32 mid = lo + (hi - lo) / 2;
    if (check_fit(kind, mid, capacity_bytes, reserved_bytes,
                  std::min(dirichlet_count, mid))
            .fits)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

} // namespace fvdf::core
