#pragma once
// A CUDA-execution-model emulator (see DESIGN.md substitutions): kernels
// are written against dim3 grids of threadblocks exactly like the paper's
// reference implementation ("we launch GPU threadblock size of 16x8x8,
// where 16 is the innermost dimension"), and each logical thread runs the
// same per-cell body. Blocks are distributed over a host thread pool;
// within a block, threads execute sequentially (the kernels here are
// data-parallel with no intra-block synchronization, so this preserves
// semantics).
//
// Timing is NOT measured from the host execution (a CPU emulating 687M
// threads says nothing about an A100); it comes from the memory-traffic /
// effective-bandwidth model in perf/analytic.hpp, the quantity the paper's
// own roofline identifies as the binding constraint (Fig. 6: memory-bound,
// 78% of peak bandwidth).

#include <functional>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "perf/analytic.hpp"
#include "perf/machine.hpp"

namespace fvdf::gpu {

struct Dim3 {
  u32 x = 1, y = 1, z = 1;
  u64 count() const { return static_cast<u64>(x) * y * z; }
};

/// Thread coordinates handed to a kernel body.
struct ThreadCtx {
  Dim3 block_idx;
  Dim3 thread_idx;
  Dim3 block_dim;
  Dim3 grid_dim;

  /// Global 3D coordinates (blockIdx * blockDim + threadIdx).
  u64 gx() const { return static_cast<u64>(block_idx.x) * block_dim.x + thread_idx.x; }
  u64 gy() const { return static_cast<u64>(block_idx.y) * block_dim.y + thread_idx.y; }
  u64 gz() const { return static_cast<u64>(block_idx.z) * block_dim.z + thread_idx.z; }
};

/// The paper's block shape: 1024 threads, 16 innermost.
inline constexpr Dim3 kPaperBlockDim{16, 8, 8};

/// Grid covering an (nx, ny, nz) cell box with the given block shape.
Dim3 grid_for(i64 nx, i64 ny, i64 nz, Dim3 block = kPaperBlockDim);

class CudaDevice {
public:
  /// `host_threads` sizes the emulation pool (0 = usable CPUs).
  explicit CudaDevice(GpuSpec spec, std::size_t host_threads = 0);

  const GpuSpec& spec() const { return spec_; }

  /// Launches `body(ctx)` for every thread of the grid. Blocks until the
  /// kernel completes (cudaDeviceSynchronize semantics). Records one
  /// kernel launch and `traffic_bytes` of modeled HBM traffic.
  void launch(Dim3 grid, Dim3 block, u64 traffic_bytes,
              const std::function<void(const ThreadCtx&)>& body);

  /// Models a cudaMemcpy (host<->device): traffic is PCIe/NVLink-side and
  /// excluded from kernel time like the paper's device-only timings, but
  /// counted for completeness.
  void memcpy_traffic(u64 bytes) { memcpy_bytes_ += bytes; }

  // Accumulated accounting.
  u64 kernel_launches() const { return launches_; }
  u64 hbm_traffic_bytes() const { return hbm_bytes_; }
  u64 memcpy_bytes() const { return memcpy_bytes_; }

  /// Modeled device seconds for the accumulated launches/traffic, using
  /// the occupancy-adjusted bandwidth for `cells` resident cells.
  f64 modeled_seconds(const GpuAnalyticModel& model, u64 cells) const;

  void reset_accounting();

private:
  GpuSpec spec_;
  ThreadPool pool_;
  u64 launches_ = 0;
  u64 hbm_bytes_ = 0;
  u64 memcpy_bytes_ = 0;
};

} // namespace fvdf::gpu
