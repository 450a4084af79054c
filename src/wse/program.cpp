#include "wse/program.hpp"

#include "common/error.hpp"

namespace fvdf::wse {

namespace {
// The site instantiate() is calling a factory for, on this thread.
thread_local const ImageSite* g_site = nullptr;
} // namespace

ImageBuilder::ImageBuilder(const ImageSite& site)
    : site_(site), memory_(site.mem.capacity_bytes, site.mem.reserved_bytes) {}

PeImage ImageBuilder::finish(std::shared_ptr<const bc::Program> program,
                             bool run_entry) {
  FVDF_CHECK_MSG(program != nullptr, "PE image has no stream");
  PeImage image;
  image.routes = std::move(routes_);
  image.allocations = memory_.allocations();
  image.arena = memory_.contents();
  image.program = std::move(program);
  image.run_entry = run_entry;
  return image;
}

const ImageSite& current_image_site() {
  FVDF_CHECK_MSG(g_site != nullptr,
                 "a PE program built from a start body needs an image site: "
                 "build it inside a program factory");
  return *g_site;
}

PeProgram::PeProgram(PeImage image) : image_(std::move(image)) {
  FVDF_CHECK_MSG(image_.program != nullptr, "PE image has no stream");
}

std::unique_ptr<PeProgram> instantiate(const ProgramFactory& factory,
                                       const ImageSite& site) {
  struct Restore {
    const ImageSite* saved;
    ~Restore() { g_site = saved; }
  } restore{g_site};
  g_site = &site;
  std::unique_ptr<PeProgram> program = factory(site.coord);
  FVDF_CHECK_MSG(program != nullptr, "program factory returned null");
  return program;
}

} // namespace fvdf::wse
