#pragma once
// The FV device programs, compiled to bytecode (docs/simulator.md,
// "Bytecode ISA").
//
// lower_cg / lower_chebyshev translate the CG driver (the 14 states of
// Sec. III-D: upload, halo exchange, event-driven flux, residual init, the
// all-reduces of Alg. 1 and the update/check steps) and the Chebyshev
// iteration — including their csl collectives — into one flat
// wse::bc::Program per PE shape. BytecodeCgProgram /
// BytecodeChebyshevProgram are the PeProgram the solver loads: their
// constructors build the PE's image — plan the arena, write the
// collectives' routes, upload the column — and take the stream lowered
// against that same arena, so every embedded offset is the image's own.
// The fabric's start task runs the stream's entry block, and the fabric
// dispatches every later task activation into the stream.
//
// PEs whose lowering inputs coincide (coordinate parity, fabric edges,
// Dirichlet count) share one immutable Program through a mutex-guarded
// cache.

#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <tuple>

#include "core/mapping.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvdf::core {

/// CG program configuration (identical across PEs except `init`).
struct CgPeConfig {
  u32 nz = 1;
  FluxMode mode = FluxMode::Fused;
  u64 max_iterations = 10'000; // k_max
  f32 tolerance = 0.0f;        // epsilon vs the global r^T r (or r^T z for PCG)
  bool jx_only = false;        // Alg. 2 scaling mode: halo+flux loop only
  // Extensions over the paper's plain-CG kernel:
  bool jacobi = false;         // Jacobi (diagonal) preconditioning
  f32 diagonal_shift = 0.0f;   // adds shift*x to interior rows of Jx — the
                               // accumulation term of a backward-Euler step
  PeInit init;                 // this PE's column data
};

/// Chebyshev program configuration: the reduction-free alternative to CG
/// (see solver/chebyshev.hpp). The recurrence coefficients are scalars
/// every PE evaluates identically, so the all-reduce only runs for the
/// convergence probe every `check_every` iterations.
struct ChebyshevPeConfig {
  u32 nz = 1;
  FluxMode mode = FluxMode::Fused;
  u64 max_iterations = 50'000;
  f32 tolerance = 0.0f;       // epsilon vs the global r^T r at probes
  u32 check_every = 16;       // iterations between convergence probes
  f32 lambda_min = 0.0f;      // spectral bounds (host-estimated)
  f32 lambda_max = 0.0f;
  f32 divergence_factor = 1e8f;
  f32 diagonal_shift = 0.0f;  // backward-Euler accumulation term
  PeInit init;
};

/// Everything the lowering branches on. Two PEs with equal sites produce
/// byte-identical programs (given one solver config).
struct LoweringSite {
  wse::PeCoord coord{};
  i64 width = 1;
  i64 height = 1;
  PeLayout layout{};
  csl::HaloExchange::Colors halo_colors{};
  csl::AllReduce::Colors reduce_colors{};
  u32 slot_value = 0; // AllReduce scalar slots (word offsets)
  u32 slot_in = 0;
};

std::shared_ptr<const wse::bc::Program> lower_cg(const CgPeConfig& config,
                                                 const LoweringSite& site);

std::shared_ptr<const wse::bc::Program>
lower_chebyshev(const ChebyshevPeConfig& config, const LoweringSite& site);

/// Thread-safe Program cache shared by every PE of one solve (programs are
/// lowered lazily per distinct site shape; the serve daemon shares one
/// cache between concurrent solves of a case).
class ProgramCache {
public:
  using Key = std::tuple<u32, u32, u32>; // (shape bits, dirichlet count, slot)
  using Lower = std::function<std::shared_ptr<const wse::bc::Program>()>;

  static Key key_for(const LoweringSite& site);

  std::shared_ptr<const wse::bc::Program> get_or_lower(const Key& key,
                                                       const Lower& lower);

private:
  std::mutex mutex_;
  std::map<Key, std::shared_ptr<const wse::bc::Program>> programs_;
};

/// Plans a solver PE's arena in `image` — the layout (PeLayout::plan),
/// then the collectives' routes and all-reduce slots — and returns the
/// lowering site it yields. Every solver image runs this one allocation
/// sequence, so a stream lowered for the site matches the image's arena.
LoweringSite plan_site(wse::ImageBuilder& image, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi, bool with_source);

/// The lowering site a PE at `coord` sees, planned in a throwaway image.
LoweringSite plan_site(wse::PeCoord coord, i64 width, i64 height,
                       const wse::PeMemoryParams& mem, u32 nz, FluxMode mode,
                       u32 dirichlet_count, bool jacobi, bool with_source);

/// A CG solver PE: its image, with the stream `cache` lowers for its site.
class BytecodeCgProgram final : public wse::PeProgram {
public:
  BytecodeCgProgram(const CgPeConfig& config, wse::PeCoord coord, i64 width,
                    i64 height, const wse::PeMemoryParams& mem,
                    const std::shared_ptr<ProgramCache>& cache);
};

/// A Chebyshev solver PE (see BytecodeCgProgram).
class BytecodeChebyshevProgram final : public wse::PeProgram {
public:
  BytecodeChebyshevProgram(const ChebyshevPeConfig& config, wse::PeCoord coord,
                           i64 width, i64 height,
                           const wse::PeMemoryParams& mem,
                           const std::shared_ptr<ProgramCache>& cache);
};

} // namespace fvdf::core
