#include "core/bytecode_program.hpp"

#include <optional>

#include "common/error.hpp"
#include "core/flux_kernels.hpp"
#include "csl/lowering.hpp"
#include "telemetry/phase.hpp"

namespace fvdf::core {

using wse::Dir;
using wse::Dsd;
using wse::dsd;
namespace bc = wse::bc;

namespace {

constexpr u8 kHalo = static_cast<u8>(telemetry::Phase::Halo);
constexpr u8 kFlux = static_cast<u8>(telemetry::Phase::Flux);
constexpr u8 kLocalDot = static_cast<u8>(telemetry::Phase::LocalDot);
constexpr u8 kAxpy = static_cast<u8>(telemetry::Phase::Axpy);
constexpr u8 kCheck = static_cast<u8>(telemetry::Phase::Check);
constexpr u8 kDone = static_cast<u8>(telemetry::Phase::Done);

// Register conventions shared by both lowerings (see csl/lowering.hpp for
// the collective registers f0-f3, u0 and the continuation registers):
//   c0  halo done continuation        u0  halo step join
//   c1  all-reduce done continuation  u1  Chebyshev probe countdown
//   f4  rr_      f5  rr_new_ (CG) / rr0_ (Chebyshev)
//   f6  alpha/beta (CG) / rho_ (Chebyshev)
//   f7+ scratch

/// The DONE block shared by both programs: publish {k, converged, rr} to
/// the result scalars (uncharged host-visible stores) and halt.
void emit_finish(bc::Builder& b, const PeLayout& layout, f32 converged_flag) {
  b.phase(kDone);
  b.uk2f(7);
  b.rstore(7, layout.result.offset_words + 0);
  b.umovi(7, converged_flag);
  b.rstore(7, layout.result.offset_words + 1);
  b.rstore(4, layout.result.offset_words + 2);
  b.halt();
  b.ret();
}

} // namespace

// ---------------------------------------------------------------------------
// Cache + site planning
// ---------------------------------------------------------------------------

ProgramCache::Key ProgramCache::key_for(const LoweringSite& site) {
  const auto& c = site.coord;
  u32 bits = 0;
  if (c.x % 2 != 0) bits |= 1u;
  if (c.y % 2 != 0) bits |= 2u;
  if (c.x == 0) bits |= 4u;
  if (c.x == site.width - 1) bits |= 8u;
  if (c.y == 0) bits |= 16u;
  if (c.y == site.height - 1) bits |= 32u;
  // dirichlet_count pins the layout shape; slot_value guards against any
  // allocation divergence not already covered by the other components.
  return {bits, site.layout.dirichlet_count, site.slot_value};
}

std::shared_ptr<const bc::Program>
ProgramCache::get_or_lower(const Key& key, const Lower& lower) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = programs_[key];
  if (!slot) slot = lower();
  return slot;
}

LoweringSite plan_site(wse::ImageBuilder& image, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi, bool with_source) {
  LoweringSite site;
  site.coord = image.coord();
  site.width = image.fabric_width();
  site.height = image.fabric_height();
  site.layout = PeLayout::plan(image.memory(), nz, mode, dirichlet_count,
                               jacobi, with_source);
  csl::HaloExchange().configure(image);
  csl::AllReduce reduce;
  reduce.configure(image);
  site.slot_value = reduce.slot_value().offset_words;
  site.slot_in = reduce.slot_in().offset_words;
  return site;
}

LoweringSite plan_site(wse::PeCoord coord, i64 width, i64 height,
                       const wse::PeMemoryParams& mem, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi, bool with_source) {
  wse::ImageBuilder image({coord, width, height, mem});
  return plan_site(image, nz, mode, dirichlet_count, jacobi, with_source);
}

// ---------------------------------------------------------------------------
// CG lowering
// ---------------------------------------------------------------------------

// The phase marks follow the 14 states of the paper's CG driver
// (Sec. III-D); the comments name the state each mark enters.
std::shared_ptr<const bc::Program> lower_cg(const CgPeConfig& config,
                                            const LoweringSite& site) {
  bc::Builder b("cg");
  const PeLayout& L = site.layout;
  const bool otf = config.mode == FluxMode::OnTheFly;

  csl::ReduceEmitter reduce(
      b, site.coord, site.width, site.height,
      {site.reduce_colors, site.slot_value, site.slot_in, /*cont_reg=*/1});

  csl::FaceEmit face = [&config, &L](bc::Builder& bb, Dir dir) {
    bb.phase(kFlux); // state COMPUTE_JX
    emit_face_flux(bb, L, config.mode, dir);
    bb.phase(kHalo); // back to waiting on the exchange
  };
  csl::HaloEmitter main_halo(
      b, site.coord, site.width, site.height,
      {site.halo_colors, dsd(L.x), dsd(L.halo_w), dsd(L.halo_e),
       dsd(L.halo_s), dsd(L.halo_n), face, /*cont_reg=*/0,
       /*pending_ureg=*/0});
  std::optional<csl::HaloEmitter> lambda_halo;
  if (otf) {
    lambda_halo.emplace(
        b, site.coord, site.width, site.height,
        csl::HaloEmitter::Spec{site.halo_colors, dsd(L.lambda), dsd(L.lh_w),
                               dsd(L.lh_e), dsd(L.lh_s), dsd(L.lh_n),
                               /*face=*/nullptr, /*cont_reg=*/0,
                               /*pending_ureg=*/0});
  }

  const u8 dr = b.dsd(dsd(L.r));
  const u8 dq = b.dsd(dsd(L.q));
  const u8 dx = b.dsd(dsd(L.x));
  const u8 dy = b.dsd(dsd(L.ysol));
  const u8 dz = b.dsd(config.jacobi ? dsd(L.z) : dsd(L.r)); // z_view
  const u8 dsrc = L.source.length != 0 ? b.dsd(dsd(L.source)) : 0;
  const u8 dminv = config.jacobi ? b.dsd(dsd(L.minv)) : 0;

  const auto entry = b.make_label();
  const auto main_first = b.make_label(); // OnTheFly: after the lambda pass
  const auto halo_jx = b.make_label();    // start_halo_jx
  const auto first_cont = b.make_label(); // init_residual / jx-pass done
  const auto iter_check = b.make_label();
  const auto after_rr0 = b.make_label();
  const auto after_iter = b.make_label(); // finalize_jx
  const auto after_xjx = b.make_label();  // update_solution
  const auto after_rr = b.make_label();   // thres_check
  const auto conv = b.make_label();
  const auto fin_ok = b.make_label();
  const auto fin_fail = b.make_label();
  const u32 kmax = b.konst(config.max_iterations);

  // --- entry (the fabric's start task runs it at cycle 0) ---
  b.bind(entry);
  b.set_entry(entry);
  reduce.emit_handler_bindings();
  if (otf) {
    // The mobility columns go around once before the first Jx pass.
    b.phase(kHalo); // state HALO_EXCHANGE
    b.setc(0, main_first);
    lambda_halo->emit_start();
    b.ret();
    b.bind(main_first);
  }
  b.setc(0, first_cont);
  b.jmp(halo_jx);

  // --- start_halo_jx: launch the exchange, overlap the z-flux ---
  b.bind(halo_jx);
  b.phase(kHalo); // state HALO_EXCHANGE
  main_halo.emit_start();
  b.phase(kFlux);
  emit_z_flux(b, L, config.mode);
  b.phase(kHalo);
  b.ret();

  if (config.jx_only) {
    // Alg. 2 scaling mode: halo + flux forever, one KINC per pass.
    b.bind(first_cont);
    b.kinc();
    b.bind(iter_check);
    b.phase(kCheck);
    b.jkge(kmax, fin_fail);
    b.setc(0, first_cont);
    b.jmp(halo_jx);
  } else {
    // --- init_residual: r0 = q_src - J p0, x0 = (M^-1) r0 ---
    b.bind(first_cont);
    b.phase(kAxpy);
    emit_fix_dirichlet_rows(b, L);
    b.vneg(dr, dq);
    if (L.source.length != 0) b.vadd(dr, dr, dsrc);
    emit_zero_dirichlet_entries(b, L, L.r);
    if (config.jacobi) b.vmul(b.dsd(dsd(L.z)), dminv, dr);
    b.vmov(dx, dz);
    b.phase(kLocalDot); // state REDUCE_RR0
    b.vdot(0, dr, dz);
    b.setc(1, after_rr0);
    b.jmp(reduce.start_label());

    b.bind(after_rr0);
    b.movr(4, 0);      // rr_ = total
    b.progress(0, 0);  // the k = 0 residual

    // --- iter_check (Alg. 1 line 4 + exact-convergence guard) ---
    b.bind(iter_check);
    b.phase(kCheck);
    b.jtol(4, config.tolerance, fin_ok);
    b.jkge(kmax, fin_fail);
    b.setc(0, after_iter);
    b.jmp(halo_jx);

    // --- finalize_jx: Dirichlet rows of q, local x^T Jx ---
    b.bind(after_iter);
    b.phase(kLocalDot);
    if (config.diagonal_shift != 0.0f)
      b.vmaci(dq, dq, dx, config.diagonal_shift);
    emit_fix_dirichlet_rows(b, L);
    b.vdot(0, dx, dq);
    b.phase(kLocalDot); // state REDUCE_XJX
    b.setc(1, after_xjx);
    b.jmp(reduce.start_label());

    // --- update_solution: alpha; y += alpha x; r -= alpha Jx ---
    b.bind(after_xjx);
    b.phase(kAxpy);
    b.chkpos(0);
    b.urcp(6, 0);
    b.smul(6, 4, 6); // alpha = fmuls_scalar(rr_, 1/xjx)
    b.vmacr(dy, dy, dx, 6);
    b.uneg(7, 6);
    b.vmacr(dr, dr, dq, 7);
    if (config.jacobi) b.vmul(b.dsd(dsd(L.z)), dminv, dr);
    b.phase(kLocalDot); // state REDUCE_RR
    b.vdot(0, dr, dz);
    b.setc(1, after_rr);
    b.jmp(reduce.start_label());

    // --- thres_check (line 8) + update_direction (lines 9-10) ---
    b.bind(after_rr);
    b.movr(5, 0);     // rr_new_
    b.phase(kCheck);
    b.progress(5, 1); // the residual of the k+1 iterate
    b.jtol(5, config.tolerance, conv);
    b.phase(kAxpy);
    b.urcp(6, 4);
    b.smul(6, 5, 6); // beta = fmuls_scalar(rr_new_, 1/rr_)
    b.vmulr(dx, dx, 6);
    b.vadd(dx, dx, dz);
    b.phase(kCheck); // state LOOP_INCREMENT
    b.movr(4, 5);
    b.kinc();
    b.jmp(iter_check);

    b.bind(conv);
    b.movr(4, 5);
    b.kinc();
    b.jmp(fin_ok);

    b.bind(fin_ok);
    emit_finish(b, L, 1.0f);
  }
  b.bind(fin_fail);
  emit_finish(b, L, 0.0f);

  main_halo.emit_handlers();
  if (lambda_halo) lambda_halo->emit_handlers();
  reduce.emit_blocks();

  return std::make_shared<const bc::Program>(b.finish());
}

// ---------------------------------------------------------------------------
// Chebyshev lowering
// ---------------------------------------------------------------------------

std::shared_ptr<const bc::Program>
lower_chebyshev(const ChebyshevPeConfig& config, const LoweringSite& site) {
  bc::Builder b("chebyshev");
  const PeLayout& L = site.layout;
  const bool otf = config.mode == FluxMode::OnTheFly;

  // Recurrence scalars: identical on every PE, so no communication.
  const f32 theta = 0.5f * (config.lambda_max + config.lambda_min);
  const f32 delta = 0.5f * (config.lambda_max - config.lambda_min);
  const f32 sigma = theta / delta;
  const f32 rho0 = 1.0f / sigma;

  csl::ReduceEmitter reduce(
      b, site.coord, site.width, site.height,
      {site.reduce_colors, site.slot_value, site.slot_in, /*cont_reg=*/1});

  csl::FaceEmit face = [&config, &L](bc::Builder& bb, Dir dir) {
    bb.phase(kFlux);
    emit_face_flux(bb, L, config.mode, dir);
    bb.phase(kHalo); // back to waiting on the exchange
  };
  csl::HaloEmitter main_halo(
      b, site.coord, site.width, site.height,
      {site.halo_colors, dsd(L.x), dsd(L.halo_w), dsd(L.halo_e),
       dsd(L.halo_s), dsd(L.halo_n), face, /*cont_reg=*/0,
       /*pending_ureg=*/0});
  std::optional<csl::HaloEmitter> lambda_halo;
  if (otf) {
    lambda_halo.emplace(
        b, site.coord, site.width, site.height,
        csl::HaloEmitter::Spec{site.halo_colors, dsd(L.lambda), dsd(L.lh_w),
                               dsd(L.lh_e), dsd(L.lh_s), dsd(L.lh_n),
                               /*face=*/nullptr, /*cont_reg=*/0,
                               /*pending_ureg=*/0});
  }

  const u8 dr = b.dsd(dsd(L.r));
  const u8 dq = b.dsd(dsd(L.q));
  const u8 dx = b.dsd(dsd(L.x));
  const u8 dy = b.dsd(dsd(L.ysol));
  const u8 dsrc = L.source.length != 0 ? b.dsd(dsd(L.source)) : 0;

  const auto entry = b.make_label();
  const auto main_first = b.make_label();
  const auto halo_jx = b.make_label();
  const auto after_init = b.make_label();       // after_init_flux
  const auto after_init_probe = b.make_label();
  const auto after_iter = b.make_label();       // after_iter_flux
  const auto no_mod = b.make_label();           // countdown not expired
  const auto probe = b.make_label();
  const auto after_probe = b.make_label();
  const auto fin_ok = b.make_label();
  const auto fin_fail = b.make_label();
  const u32 kmax = b.konst(config.max_iterations);

  // --- entry ---
  b.bind(entry);
  b.set_entry(entry);
  reduce.emit_handler_bindings();
  b.umovi(9, 2.0f); // constant operand of the charged 2*sigma product
  b.umovi(6, rho0); // rho_
  b.setu(1, config.check_every);
  if (otf) {
    b.setc(0, main_first);
    lambda_halo->emit_start();
    b.ret();
    b.bind(main_first);
  }
  b.setc(0, after_init);
  b.jmp(halo_jx);

  // --- start_halo_jx (unlike CG, no extra Halo mark before emit_start) ---
  b.bind(halo_jx);
  main_halo.emit_start();
  b.phase(kFlux);
  emit_z_flux(b, L, config.mode);
  b.phase(kHalo);
  b.ret();

  // --- after_init_flux: r0 = q_src - J p0, d0 = r0 / theta ---
  b.bind(after_init);
  b.phase(kAxpy);
  emit_fix_dirichlet_rows(b, L);
  b.vneg(dr, dq);
  if (L.source.length != 0) b.vadd(dr, dr, dsrc);
  emit_zero_dirichlet_entries(b, L, L.r);
  b.vmuli(dx, dr, 1.0f / theta);
  b.phase(kLocalDot);
  b.vdot(0, dr, dr);
  b.setc(1, after_init_probe);
  b.jmp(reduce.start_label());

  b.bind(after_init_probe);
  b.movr(5, 0); // rr0_
  b.movr(4, 0); // rr_
  b.phase(kCheck);
  b.progress(4, 0);
  b.jtol(4, config.tolerance, fin_ok);
  b.setc(0, after_iter);
  b.jmp(halo_jx);

  // --- after_iter_flux: y += d; r -= q; d-recurrence ---
  b.bind(after_iter);
  b.phase(kLocalDot);
  if (config.diagonal_shift != 0.0f)
    b.vmaci(dq, dq, dx, config.diagonal_shift);
  emit_fix_dirichlet_rows(b, L);
  b.phase(kAxpy);
  b.vadd(dy, dy, dx);
  b.vmaci(dr, dr, dq, -1.0f);
  b.smuli(8, 9, sigma);  // charged fmuls_scalar(2.0f, sigma_)
  b.usub(8, 8, 6);
  b.urcp(8, 8);          // rho_next
  b.umul(10, 8, 6);      // rho_next * rho_
  b.vmulr(dx, dx, 10);
  b.umuli(11, 8, 2.0f);  // 2 * rho_next
  b.udivi(11, 11, delta);
  b.vmacr(dx, dx, dr, 11);
  b.movr(6, 8); // rho_ = rho_next
  b.kinc();
  // next_or_probe: k % check_every == 0 (countdown) or k >= max.
  b.decjnz(1, no_mod);
  b.setu(1, config.check_every);
  b.jmp(probe);
  b.bind(no_mod);
  b.jkge(kmax, probe);
  b.setc(0, after_iter);
  b.jmp(halo_jx);

  // --- convergence probe ---
  b.bind(probe);
  b.phase(kLocalDot);
  b.vdot(0, dr, dr);
  b.setc(1, after_probe);
  b.jmp(reduce.start_label());

  b.bind(after_probe);
  b.movr(4, 0); // rr_
  b.phase(kCheck);
  b.progress(4, 0);
  b.jtol(4, config.tolerance, fin_ok);
  b.jkge(kmax, fin_fail);
  b.umuli(7, 5, config.divergence_factor); // divergence_factor * rr0_
  b.jgtr(4, 7, fin_fail);
  b.setc(0, after_iter);
  b.jmp(halo_jx);

  b.bind(fin_ok);
  emit_finish(b, L, 1.0f);
  b.bind(fin_fail);
  emit_finish(b, L, 0.0f);

  main_halo.emit_handlers();
  if (lambda_halo) lambda_halo->emit_handlers();
  reduce.emit_blocks();

  return std::make_shared<const bc::Program>(b.finish());
}

// ---------------------------------------------------------------------------
// Solver PE images
// ---------------------------------------------------------------------------

namespace {

/// A solver PE's image: the planned arena and routes (plan_site), this
/// PE's uploaded column, and the stream `lower` compiles for the site,
/// once per distinct site through the cache.
template <typename Config, typename Lower>
wse::PeImage solver_image(const Config& config, const wse::ImageSite& where,
                          bool jacobi, ProgramCache& cache, Lower lower) {
  FVDF_CHECK(config.nz >= 1);
  FVDF_CHECK(config.init.p0.size() == config.nz);
  wse::ImageBuilder image(where);
  const LoweringSite site = plan_site(
      image, config.nz, config.mode,
      static_cast<u32>(config.init.dirichlet_z.size()), jacobi,
      !config.init.source.empty());
  upload_pe_init(image, site.layout, config.init, config.mode, jacobi);
  return image.finish(cache.get_or_lower(ProgramCache::key_for(site), [&] {
    return lower(config, site);
  }));
}

const ChebyshevPeConfig& checked(const ChebyshevPeConfig& config) {
  FVDF_CHECK_MSG(config.lambda_max > config.lambda_min && config.lambda_min > 0,
                 "Chebyshev needs valid spectral bounds");
  FVDF_CHECK(config.check_every >= 1);
  return config;
}

} // namespace

BytecodeCgProgram::BytecodeCgProgram(const CgPeConfig& config,
                                     wse::PeCoord coord, i64 width,
                                     i64 height,
                                     const wse::PeMemoryParams& mem,
                                     const std::shared_ptr<ProgramCache>& cache)
    : PeProgram(solver_image(config, {coord, width, height, mem},
                             config.jacobi, *cache, lower_cg)) {}

BytecodeChebyshevProgram::BytecodeChebyshevProgram(
    const ChebyshevPeConfig& config, wse::PeCoord coord, i64 width,
    i64 height, const wse::PeMemoryParams& mem,
    const std::shared_ptr<ProgramCache>& cache)
    : PeProgram(solver_image(checked(config), {coord, width, height, mem},
                             /*jacobi=*/false, *cache, lower_chebyshev)) {}

} // namespace fvdf::core
