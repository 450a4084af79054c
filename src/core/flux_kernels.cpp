#include "core/flux_kernels.hpp"

#include "common/error.hpp"

namespace fvdf::core {

using wse::Dir;
using wse::Dsd;
using wse::dsd;
void upload_pe_init(wse::ImageBuilder& image, const PeLayout& layout,
                    const PeInit& init, FluxMode mode, bool jacobi) {
  auto& mem = image.memory();
  auto put = [&](const wse::MemSpan& span, const std::vector<f32>& data) {
    FVDF_CHECK(span.length == data.size());
    for (u32 i = 0; i < span.length; ++i) mem.store(span.offset_words + i, data[i]);
  };
  auto zero = [&](const wse::MemSpan& span) {
    for (u32 i = 0; i < span.length; ++i) mem.store(span.offset_words + i, 0.0f);
  };
  put(layout.cw, init.cw);
  put(layout.ce, init.ce);
  put(layout.cs, init.cs);
  put(layout.cn, init.cn);
  if (layout.nz > 1) put(layout.cz, init.cz);
  if (mode == FluxMode::OnTheFly) {
    put(layout.lambda, init.lambda);
    zero(layout.lh_w);
    zero(layout.lh_e);
    zero(layout.lh_s);
    zero(layout.lh_n);
    zero(layout.scratch2);
  }
  put(layout.x, init.p0); // x carries p0 through the INIT pass
  if (jacobi) {
    put(layout.minv, init.minv);
    zero(layout.z);
  }
  if (!init.source.empty()) put(layout.source, init.source);
  zero(layout.r);
  zero(layout.ysol);
  zero(layout.q);
  zero(layout.d);
  zero(layout.halo_w);
  zero(layout.halo_e);
  zero(layout.halo_s);
  zero(layout.halo_n);
  for (u32 i = 0; i < layout.dirichlet_count; ++i) {
    const u16 z = init.dirichlet_z[i];
    mem.store_byte(layout.dirichlet_list.offset_words + 2 * i,
                   static_cast<u8>(z & 0xff));
    mem.store_byte(layout.dirichlet_list.offset_words + 2 * i + 1,
                   static_cast<u8>(z >> 8));
  }
  zero(layout.result);
}

// --------------------------------------------------------------------------
// Bytecode emitters
// --------------------------------------------------------------------------

namespace bc = wse::bc;

void emit_z_flux(bc::Builder& b, const PeLayout& layout, FluxMode mode) {
  const u32 nz = layout.nz;
  b.vmovi(b.dsd(dsd(layout.q)), 0.0f);
  if (nz == 1) return;

  const u8 x_lo = b.dsd(dsd(layout.x, 0, nz - 1));
  const u8 x_hi = b.dsd(dsd(layout.x, 1, nz - 1));
  const u8 q_lo = b.dsd(dsd(layout.q, 0, nz - 1));
  const u8 q_hi = b.dsd(dsd(layout.q, 1, nz - 1));
  const u8 d_lo = b.dsd(dsd(layout.d, 0, nz - 1));
  const u8 cz = b.dsd(dsd(layout.cz));

  if (mode == FluxMode::Fused) {
    // q[z]   += w_z[z] * (x[z] - x[z+1])    (coupling to the cell below)
    // q[z+1] += w_z[z] * (x[z+1] - x[z])    (and back up, via negation)
    b.vsub(d_lo, x_lo, x_hi);
    b.vmac(q_lo, q_lo, cz, d_lo);
    b.vneg(d_lo, d_lo);
    b.vmac(q_hi, q_hi, cz, d_lo);
  } else {
    // Mobility averaged on the fly: w = Upsilon_z * 0.5 * (l[z] + l[z+1]).
    const u8 l_lo = b.dsd(dsd(layout.lambda, 0, nz - 1));
    const u8 l_hi = b.dsd(dsd(layout.lambda, 1, nz - 1));
    const u8 s_lo = b.dsd(dsd(layout.scratch2, 0, nz - 1));
    b.vadd(s_lo, l_lo, l_hi);
    b.vmuli(s_lo, s_lo, 0.5f);
    b.vmul(s_lo, cz, s_lo);
    b.vsub(d_lo, x_lo, x_hi);
    b.vmac(q_lo, q_lo, s_lo, d_lo);
    b.vneg(d_lo, d_lo);
    b.vmac(q_hi, q_hi, s_lo, d_lo);
  }
}

void emit_face_flux(bc::Builder& b, const PeLayout& layout, FluxMode mode,
                    Dir dir) {
  Dsd coef{}, halo{}, lhalo{};
  switch (dir) {
  case Dir::West: coef = dsd(layout.cw); halo = dsd(layout.halo_w); lhalo = dsd(layout.lh_w); break;
  case Dir::East: coef = dsd(layout.ce); halo = dsd(layout.halo_e); lhalo = dsd(layout.lh_e); break;
  case Dir::South: coef = dsd(layout.cs); halo = dsd(layout.halo_s); lhalo = dsd(layout.lh_s); break;
  case Dir::North: coef = dsd(layout.cn); halo = dsd(layout.halo_n); lhalo = dsd(layout.lh_n); break;
  case Dir::Ramp: throw Error("flux: invalid direction");
  }
  const u8 x = b.dsd(dsd(layout.x));
  const u8 q = b.dsd(dsd(layout.q));
  const u8 d = b.dsd(dsd(layout.d));
  const u8 c = b.dsd(coef);
  const u8 h = b.dsd(halo);
  if (mode == FluxMode::Fused) {
    // q += w_dir * (x - halo_dir)
    b.vsub(d, x, h);
    b.vmac(q, q, c, d);
  } else {
    const u8 s = b.dsd(dsd(layout.scratch2));
    b.vadd(s, b.dsd(dsd(layout.lambda)), b.dsd(lhalo));
    b.vmuli(s, s, 0.5f);
    b.vmul(s, c, s);
    b.vsub(d, x, h);
    b.vmac(q, q, s, d);
  }
}

void emit_fix_dirichlet_rows(bc::Builder& b, const PeLayout& layout) {
  // Eq. (6) Dirichlet rows: (Jx)_K = x_K. The lateral/vertical garbage the
  // branch-free kernel accumulated into pinned rows is overwritten here.
  if (layout.dirichlet_count == 0) return;
  b.fixd(b.dsd(dsd(layout.x)), b.dsd(dsd(layout.q)), layout.dirichlet_count,
         layout.dirichlet_list.offset_words);
}

void emit_zero_dirichlet_entries(bc::Builder& b, const PeLayout& layout,
                                 const wse::MemSpan& span) {
  if (layout.dirichlet_count == 0) return;
  b.zdir(b.dsd(dsd(span)), layout.dirichlet_count,
         layout.dirichlet_list.offset_words);
}

} // namespace fvdf::core
